//ripslint:allow-file wallclock health polling deadlines and SSE receipt times are host time by design; they never reach the scheduler

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"rips"
)

// jobDoc is the part of ripsd's job document (GET /v1/jobs) the
// benchmark reads.
type jobDoc struct {
	ID          string           `json:"id"`
	Priority    string           `json:"priority"`
	State       string           `json:"state"`
	CacheHit    bool             `json:"cache_hit"`
	Result      *rips.ResultJSON `json:"result"`
	Error       string           `json:"error"`
	SubmittedAt time.Time        `json:"submitted_at"`
	StartedAt   *time.Time       `json:"started_at"`
	FinishedAt  *time.Time       `json:"finished_at"`
}

func (d jobDoc) terminal() bool {
	switch d.State {
	case "done", "failed", "canceled":
		return true
	}
	return false
}

// statsDoc is the part of GET /v1/stats the benchmark reads.
type statsDoc struct {
	Preemptions int64 `json:"preemptions"`
	Rejects     int64 `json:"rejects"`
	Cache       struct {
		Hits int64 `json:"hits"`
	} `json:"cache"`
}

// clusterDoc is the part of GET /v1/cluster the benchmark reads.
type clusterDoc struct {
	Members []struct {
		Addr string `json:"addr"`
	} `json:"members"`
}

// client talks to one ripsd. Its transport keeps at most conns
// connections, so the load a run offers comes from a bounded set of
// sockets.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// get fetches path and returns the body of a 200 answer.
func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

func (c *client) getJSON(ctx context.Context, path string, v any) error {
	body, err := c.get(ctx, path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// submit POSTs a rips-job/v1 document and returns the job id. Any
// answer but 202, a 503 refusal included, is an error.
func (c *client) submit(ctx context.Context, spec rips.JobSpec) (string, error) {
	body, err := spec.Encode()
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("POST /v1/jobs: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var doc jobDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return "", fmt.Errorf("POST /v1/jobs: %w", err)
	}
	return doc.ID, nil
}

func (c *client) jobs(ctx context.Context) ([]jobDoc, error) {
	var out struct {
		Jobs []jobDoc `json:"jobs"`
	}
	err := c.getJSON(ctx, "/v1/jobs", &out)
	return out.Jobs, err
}

func (c *client) stats(ctx context.Context) (statsDoc, error) {
	var s statsDoc
	err := c.getJSON(ctx, "/v1/stats", &s)
	return s, err
}

func (c *client) members(ctx context.Context) (int, error) {
	var d clusterDoc
	err := c.getJSON(ctx, "/v1/cluster", &d)
	return len(d.Members), err
}

func (c *client) metricsText(ctx context.Context) (string, error) {
	body, err := c.get(ctx, "/metrics")
	return string(body), err
}

// awaitResult reads the job's SSE stream up to its terminal event and
// returns the result document with the moment it arrived.
func (c *client) awaitResult(ctx context.Context, id string) (rips.ResultJSON, time.Time, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return rips.ResultJSON{}, time.Time{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return rips.ResultJSON{}, time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return rips.ResultJSON{}, time.Time{}, fmt.Errorf("events %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "result":
			at := time.Now()
			var doc rips.ResultJSON
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &doc); err != nil {
				return rips.ResultJSON{}, at, fmt.Errorf("events %s: %w", id, err)
			}
			// Drain the rest so the connection goes back to the pool.
			_, _ = io.Copy(io.Discard, resp.Body)
			return doc, at, nil
		case strings.HasPrefix(line, "data: ") && event == "error":
			return rips.ResultJSON{}, time.Now(), fmt.Errorf("job %s: %s", id, strings.TrimPrefix(line, "data: "))
		}
	}
	if err := sc.Err(); err != nil {
		return rips.ResultJSON{}, time.Time{}, fmt.Errorf("events %s: %w", id, err)
	}
	return rips.ResultJSON{}, time.Time{}, fmt.Errorf("events %s: stream ended without a result", id)
}

// startRipsd starts one ripsd on a free port and waits for /healthz.
// A child that dies before answering (its port was taken meanwhile)
// is retried on a fresh port. extra returns the remaining flags; it is
// called once per attempt, so callers can pick fresh ports there too.
func startRipsd(ctx context.Context, ps *procs, bin, name string, extra func() ([]string, error)) (*proc, string, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, "", err
		}
		more, err := extra()
		if err != nil {
			return nil, "", err
		}
		p, err := ps.start(name, bin, append([]string{"-addr", addr}, more...)...)
		if err != nil {
			return nil, "", err
		}
		if err := waitHealthy(ctx, p, addr); err != nil {
			lastErr = err
			ps.release(p)
			continue
		}
		return p, addr, nil
	}
	return nil, "", fmt.Errorf("start %s: %w", name, lastErr)
}

func waitHealthy(ctx context.Context, p *proc, addr string) error {
	c := newClient(addr, 1)
	defer c.close()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if p.exited() {
			return fmt.Errorf("%s exited before it was healthy: %v", p.name, p.err)
		}
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		_, err := c.get(hctx, "/healthz")
		cancel()
		if err == nil {
			return nil
		}
		if err := sleepCtx(ctx, 10*time.Millisecond); err != nil {
			return err
		}
	}
	return fmt.Errorf("%s not healthy on %s within 10s", p.name, addr)
}
