package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"rips"
)

// httpJob is one submission to a ripsd, joined after the window with
// the job document the server kept.
type httpJob struct {
	key   appKey
	spec  rips.JobSpec
	node  int       // index of the ripsd it was submitted to
	due   time.Time // when it was scheduled to be sent (open loop) or was sent (closed loop)
	sent  time.Time
	acked time.Time // POST answered
	got   time.Time // SSE result received (closed loop only)
	id    string
	err   error // submission, stream or answer failure
	doc   jobDoc
	trace int // job id in the span dump
	rot   int // closed loop: rotation it ran in
}

// finished is when the job settled on the server.
func (j *httpJob) finished() time.Time { return *j.doc.FinishedAt }

// latency is due time to settlement, or to receipt when the client
// waited on the stream.
func (j *httpJob) latency() time.Duration {
	if !j.got.IsZero() {
		return j.got.Sub(j.due)
	}
	return j.finished().Sub(j.due)
}

func (j *httpJob) wall() time.Duration { return time.Duration(j.doc.Result.WallNS) }

// settle fetches every node's job list until each submitted job is
// terminal, then joins documents onto jobs and checks each answer.
func settle(ctx context.Context, clients []*client, jobs []*httpJob, bs baselines) error {
	for {
		docs := map[[2]string]jobDoc{}
		for n, c := range clients {
			list, err := c.jobs(ctx)
			if err != nil {
				return fmt.Errorf("list jobs: %w", err)
			}
			for _, d := range list {
				docs[[2]string{fmt.Sprint(n), d.ID}] = d
			}
		}
		pending := 0
		for _, j := range jobs {
			if j.id == "" {
				continue
			}
			d, ok := docs[[2]string{fmt.Sprint(j.node), j.id}]
			if !ok {
				return fmt.Errorf("job %s vanished from node %d", j.id, j.node)
			}
			j.doc = d
			if !d.terminal() {
				pending++
			}
		}
		if pending == 0 {
			break
		}
		if err := sleepCtx(ctx, 50*time.Millisecond); err != nil {
			return fmt.Errorf("%d jobs still unsettled: %w", pending, err)
		}
	}
	for _, j := range jobs {
		if j.err != nil || j.id == "" {
			continue
		}
		switch {
		case j.doc.State != "done":
			j.err = fmt.Errorf("state %s: %s", j.doc.State, j.doc.Error)
		case j.doc.Result == nil || j.doc.Result.Canceled:
			j.err = fmt.Errorf("done without a complete result")
		case j.doc.FinishedAt == nil:
			j.err = fmt.Errorf("done without finished_at")
		default:
			j.err = bs[j.key].check(j.doc.Result.Tasks, j.doc.Result.AppResult)
		}
	}
	return nil
}

// describe renders a job's spec for a failure line.
func (j *httpJob) describe() string {
	body, _ := j.spec.Encode() // encoding a spec of plain fields cannot fail
	return fmt.Sprintf("job %s on node %d %s", j.id, j.node, body)
}

// countFailures records the failed jobs and returns the good ones.
func countFailures(rep *report, jobs []*httpJob) []*httpJob {
	var good []*httpJob
	for _, j := range jobs {
		rep.attempted++
		if j.err != nil {
			rep.fail(j.describe(), j.err)
			continue
		}
		good = append(good, j)
	}
	return good
}

// httpSamples turns the correct jobs of a window into samples, with
// Ts from tsOf, and notes each app's latency and wall. It returns the
// time the last job ended for its client.
func httpSamples(rep *report, good []*httpJob, group string, tsOf func(*httpJob) time.Duration) ([]sample, time.Time) {
	var out []sample
	var last time.Time
	byKey := map[string][]*httpJob{}
	for _, j := range good {
		s := sample{group: group, latency: j.latency()}
		if !j.doc.CacheHit {
			s.wall, s.ts = j.wall(), tsOf(j)
		}
		out = append(out, s)
		end := j.finished()
		if !j.got.IsZero() {
			end = j.got
		}
		if end.After(last) {
			last = end
		}
		k := j.key.String()
		if j.doc.CacheHit {
			k = "cache-hit"
		}
		byKey[k] = append(byKey[k], j)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		js := byKey[k]
		var l, w []float64
		for _, j := range js {
			l = append(l, ms(j.latency()))
			w = append(w, ms(j.wall()))
		}
		rep.note("%-10s %4d jobs: latency p50 %8.3f ms p90 %8.3f ms, wall p50 %8.3f ms", k, len(js), median(l), quantile(l, 0.9), median(w))
	}
	return out, last
}

// serveLayers fills the tenant and serve metrics of a traced window
// from the job documents, and records each job's spans.
func serveLayers(rep *report, tr *tracer, bs baselines, good []*httpJob) {
	var mix []appKey
	var tasks, admit, submit, overhead, notify []float64
	lanes := map[string][]float64{}
	for _, j := range good {
		d := j.doc
		tasks = append(tasks, float64(d.Result.Tasks))
		submit = append(submit, ms(j.acked.Sub(j.sent)))
		lanes[d.Priority] = append(lanes[d.Priority], ms(j.latency()))
		end := j.finished()
		if !j.got.IsZero() {
			end = j.got
			notify = append(notify, ms(j.got.Sub(j.finished())))
		}
		root := tr.add("bench.job", j.due, end, -1, j.trace)
		tr.add("serve.submit", j.sent, j.acked, root, j.trace)
		if !j.got.IsZero() {
			tr.add("serve.notify", j.finished(), j.got, root, j.trace)
		}
		if d.CacheHit || d.StartedAt == nil {
			tr.add("tenant.cache", d.SubmittedAt, j.finished(), root, j.trace)
			continue
		}
		mix = append(mix, j.key)
		admit = append(admit, ms(d.StartedAt.Sub(d.SubmittedAt)))
		overhead = append(overhead, ms(j.finished().Sub(*d.StartedAt)-j.wall()))
		tr.add("tenant.admit", d.SubmittedAt, *d.StartedAt, root, j.trace)
		run := tr.add("serve.run", *d.StartedAt, j.finished(), root, j.trace)
		runner := "par.run"
		if d.Result.Config.Backend == "cluster" {
			runner = "cluster.run"
		}
		tr.add(runner, j.finished().Add(-j.wall()), j.finished(), run, j.trace)
	}
	rep.layer["apps.seq_ns_per_task"] = metric{bs.seqNsPerTask(mix), "ns"}
	rep.layer["apps.tasks_per_job"] = metric{mean(tasks), "count"}
	rep.layer["tenant.admit_wait_ms_p50"] = metric{quantile(admit, 0.5), "ms"}
	rep.layer["tenant.admit_wait_ms_p99"] = metric{quantile(admit, 0.99), "ms"}
	for lane, l := range lanes {
		rep.layer["tenant.lane_ms_p50."+lane] = metric{median(l), "ms"}
	}
	rep.layer["serve.submit_ms_p50"] = metric{quantile(submit, 0.5), "ms"}
	rep.layer["serve.submit_ms_p99"] = metric{quantile(submit, 0.99), "ms"}
	rep.layer["serve.run_overhead_ms_p50"] = metric{median(overhead), "ms"}
	rep.layer["serve.notify_ms_p50"] = metric{median(notify), "ms"}
	if !tailOK(len(admit), 0.99) {
		rep.note("tenant.admit_wait_ms_p99 and serve.submit_ms_p99 rest on %d jobs (fewer than %d beyond p99)", len(admit), minSamplesBeyond)
	}
}
