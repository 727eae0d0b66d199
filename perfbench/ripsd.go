//ripslint:allow-file wallclock the open-loop generator paces submissions and measures latency in wall time

package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"rips"
)

// mixClasses is ripsd-mixed's job mix: small paper workloads in fixed
// shares. With the cache hits below them, the shares put p50 and p90
// inside the nq13 jobs rather than on a boundary between two classes,
// where a run's quantile would jump from run to run. Jobs of a few
// milliseconds would put the quantiles where this host's scheduling
// jitter is a large share of the latency, and a larger share of
// IDA* jobs would make the tail hinge on a few of them queueing.
var mixClasses = []struct {
	key   appKey
	share float64
}{
	{appKey{"nq", 11}, 0.08},
	{appKey{"nq", 12}, 0.08},
	{appKey{"gromos", 8}, 0.08},
	{appKey{"nq", 13}, 0.73},
	{appKey{"ida", 1}, 0.03},
}

// Lane shares of ripsd-mixed. High-lane jobs ask for the whole pool,
// so they preempt whatever runs below them.
const (
	highShare = 0.05
	lowShare  = 0.35
	// repeatEvery makes one submission in this many repeat an earlier
	// spec verbatim, so the result cache is used without dominating.
	repeatEvery = 10
	// nominalRate is the open-loop rate of the measured window, about a
	// fifth of the reference host's capacity.
	nominalRate = 8.0
	// latencyLimit is the p90 a ladder step must meet to count towards
	// max_rate_jobs_per_s.
	latencyLimit = 400 * time.Millisecond
)

// mixTenants submit with fair-share weights 2:1:1.
var mixTenants = []struct {
	name   string
	weight int
}{{"a", 2}, {"b", 1}, {"c", 1}}

// stratified returns n labels drawn in exact proportion to shares
// (largest remainder), shuffled by rng.
func stratified(rng *rand.Rand, n int, shares []float64) []int {
	counts := make([]int, len(shares))
	type rem struct {
		i int
		r float64
	}
	var rems []rem
	left := n
	for i, s := range shares {
		x := s * float64(n)
		counts[i] = int(math.Floor(x))
		left -= counts[i]
		rems = append(rems, rem{i, x - math.Floor(x)})
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].r > rems[b].r })
	for k := 0; k < left; k++ {
		counts[rems[k%len(rems)].i]++
	}
	out := make([]int, 0, n)
	for i, c := range counts {
		for k := 0; k < c; k++ {
			out = append(out, i)
		}
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// schedule makes one open-loop segment: n = rate*dur submissions due at
// sorted uniform offsets from start (a Poisson process conditioned on
// its count), with specs drawn from the mix.
func schedule(rng *rand.Rand, start time.Time, rate float64, dur time.Duration, workers int) []*httpJob {
	n := int(math.Round(rate * secs(dur)))
	offsets := make([]float64, n)
	for i := range offsets {
		offsets[i] = rng.Float64() * float64(dur)
	}
	sort.Float64s(offsets)
	var shares []float64
	for _, c := range mixClasses {
		shares = append(shares, c.share)
	}
	classes := stratified(rng, n, shares)
	lanes := stratified(rng, n, []float64{highShare, 1 - highShare - lowShare, lowShare})
	even := func(k int) []float64 {
		out := make([]float64, k)
		for i := range out {
			out[i] = 1 / float64(k)
		}
		return out
	}
	procs := stratified(rng, n, even(workers))
	tenants := stratified(rng, n, even(len(mixTenants)))
	jobs := make([]*httpJob, n)
	for i := range jobs {
		j := &httpJob{due: start.Add(time.Duration(offsets[i]))}
		if i%repeatEvery == repeatEvery-1 {
			prev := jobs[rng.Intn(i)]
			j.key, j.spec = prev.key, prev.spec
			jobs[i] = j
			continue
		}
		k := mixClasses[classes[i]].key
		procs := 1 + procs[i]
		prio := []string{"high", "normal", "low"}[lanes[i]]
		if prio == "high" {
			procs = workers
		}
		j.key = k
		j.spec = rips.JobSpec{
			App:      k.app,
			Size:     k.size,
			Config:   rips.ConfigJSON{Procs: procs, Seed: rng.Int63()},
			Tenant:   mixTenants[tenants[i]].name,
			Priority: prio,
		}
		jobs[i] = j
	}
	return jobs
}

// send runs the open loop: a dispatcher releases each job at its due
// time to at most conns senders, which POST it. A sender still busy
// when a job falls due makes the job late; lateness is measured, not
// hidden.
func send(ctx context.Context, c *client, jobs []*httpJob, conns int) {
	ch := make(chan *httpJob, len(jobs)) // one slot per job: the dispatcher never blocks
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				j.sent = time.Now()
				j.id, j.err = c.submit(ctx, j.spec)
				j.acked = time.Now()
			}
		}()
	}
	for _, j := range jobs {
		if d := time.Until(j.due); d > 0 {
			if sleepCtx(ctx, d) != nil {
				break
			}
		}
		ch <- j
	}
	close(ch)
	wg.Wait()
}

// runRipsdMixed is the open loop against one ripsd.
func runRipsdMixed(ctx context.Context, o *options, ps *procs) (*report, error) {
	rep := newReport()
	workers := runtime.NumCPU()
	rep.workers = workers
	var keys []appKey
	for _, c := range mixClasses {
		keys = append(keys, c.key)
	}
	// A queue far deeper than any run submits: overload on the ladder
	// shows as latency and backlog, never as 503 refusals.
	args := []string{"-workers", strconv.Itoa(workers), "-queue", "100000"}
	for _, t := range mixTenants {
		args = append(args, "-weight", fmt.Sprintf("%s=%d", t.name, t.weight))
	}

	// Set-up: start the server and submit each app once, so ripsd's
	// profile cache is filled before timing.
	bs := baselines{}
	var srv *proc
	var addr string
	err := setUp(o, rep, bs, keys, func(r int) error {
		if srv != nil {
			ps.release(srv)
		}
		var err error
		srv, addr, err = startRipsd(ctx, ps, o.ripsd, fmt.Sprintf("ripsd-mixed-%d", r), func() ([]string, error) { return args, nil })
		if err != nil {
			return err
		}
		c := newClient(addr, 1)
		defer c.close()
		for _, k := range keys {
			spec := rips.JobSpec{App: k.app, Size: k.size, Tenant: "warmup", Config: rips.ConfigJSON{Procs: workers}}
			if err := warmup(ctx, c, spec, bs[k]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	c := newClient(addr, workers)
	defer c.close()
	clients := []*client{c}
	rng := rand.New(rand.NewSource(o.seed))
	// An untraced run spends its whole window at the nominal rate. A
	// traced run halves that, then runs the ladder, then repeats the
	// half window traced.
	nominal := o.window()
	if o.trace {
		nominal /= 2
	}

	// Nominal load, untraced: the end-to-end metrics.
	u0, err := readUsage(srv.pid())
	if err != nil {
		return nil, err
	}
	start := time.Now().Add(20 * time.Millisecond)
	jobs := schedule(rng, start, nominalRate, nominal, workers)
	send(ctx, c, jobs, workers)
	if err := settle(ctx, clients, jobs, bs); err != nil {
		return nil, err
	}
	u1, err := readUsage(srv.pid())
	if err != nil {
		return nil, err
	}
	// The server runs while the generator sends, so Ts comes from the
	// set-up, not from marks inside the window.
	good, last := httpSamples(rep, countFailures(rep, jobs), "", func(j *httpJob) time.Duration { return bs[j.key].ts() })
	endToEnd(rep, good, last.Sub(start), usage{cpu: u1.cpu - u0.cpu, hwmKB: u1.hwmKB})
	var late []float64
	for _, j := range jobs {
		late = append(late, ms(j.sent.Sub(j.due)))
	}
	rep.e2e["gen_late_ms_p99"] = metric{quantile(late, 0.99), "ms"}
	rep.note("nominal %.0f jobs/s for %.1fs: %d jobs; generator lateness p50 %.3f ms, p99 %.3f ms over %d sends",
		nominalRate, secs(nominal), len(jobs), quantile(late, 0.5), quantile(late, 0.99), len(late))

	if !o.trace {
		return rep, nil
	}
	maxRate, err := ladder(ctx, o, rep, c, rng, bs, workers, o.window()*3/10)
	if err != nil {
		return nil, err
	}
	rep.e2e["max_rate_jobs_per_s"] = metric{maxRate, "1/s"}

	// The same load again, traced: per-layer metrics and spans.
	st0, h0, err := scrape(ctx, c)
	if err != nil {
		return nil, err
	}
	start = time.Now().Add(20 * time.Millisecond)
	tjobs := schedule(rng, start, nominalRate, nominal, workers)
	for i, j := range tjobs {
		j.trace = i
	}
	send(ctx, c, tjobs, workers)
	if err := settle(ctx, clients, tjobs, bs); err != nil {
		return nil, err
	}
	st1, h1, err := scrape(ctx, c)
	if err != nil {
		return nil, err
	}
	tgood := countFailures(rep, tjobs)
	tr := newTracer()
	serveLayers(rep, tr, bs, tgood)
	mixLayers(rep, tgood, len(tjobs), st0, st1, h1.since(h0))
	rep.tracer, rep.tracedJobs = tr, len(tjobs)
	rep.note("trace.overhead_frac not measured: the spans are rebuilt from job documents, so tracing adds nothing inside the server")
	return rep, nil
}

// mixLayers fills the tenant and serve metrics only an open loop
// with lanes, repeats and many jobs in flight can move: the backlog,
// the /v1/stats deltas and the /metrics phase-latency histogram delta.
func mixLayers(rep *report, good []*httpJob, attempted int, st0, st1 statsDoc, phases histogram) {
	type ev struct {
		at    time.Time
		delta int
	}
	var evs []ev
	for _, j := range good {
		evs = append(evs, ev{j.doc.SubmittedAt, 1}, ev{j.finished(), -1})
	}
	sort.Slice(evs, func(a, b int) bool { return evs[a].at.Before(evs[b].at) })
	backlog, peak := 0, 0
	for _, e := range evs {
		backlog += e.delta
		peak = max(peak, backlog)
	}
	n := float64(len(good))
	rep.layer["tenant.preemptions_per_job"] = metric{ratio(float64(st1.Preemptions-st0.Preemptions), n), "count"}
	rep.layer["tenant.cache_hit_frac"] = metric{ratio(float64(st1.Cache.Hits-st0.Cache.Hits), n), "ratio"}
	rep.layer["tenant.reject_frac"] = metric{ratio(float64(st1.Rejects-st0.Rejects), float64(attempted)), "ratio"}
	rep.layer["serve.backlog_max"] = metric{float64(peak), "count"}
	rep.layer["serve.phase_ms_p50"] = metric{1000 * phases.quantile(0.5), "ms"}
}

// scrape reads /v1/stats and the phase-latency histogram of a ripsd.
func scrape(ctx context.Context, c *client) (statsDoc, histogram, error) {
	st, err := c.stats(ctx)
	if err != nil {
		return statsDoc{}, histogram{}, err
	}
	text, err := c.metricsText(ctx)
	if err != nil {
		return statsDoc{}, histogram{}, err
	}
	return st, parseHistogram(text, "ripsd_phase_latency_seconds"), nil
}

// warmup runs one job to completion over SSE and checks its answer.
func warmup(ctx context.Context, c *client, spec rips.JobSpec, b *baseline) error {
	id, err := c.submit(ctx, spec)
	if err != nil {
		return fmt.Errorf("warm-up %s/%d: %w", spec.App, spec.Size, err)
	}
	doc, _, err := c.awaitResult(ctx, id)
	if err != nil {
		return fmt.Errorf("warm-up %s/%d: %w", spec.App, spec.Size, err)
	}
	if err := b.check(doc.Tasks, doc.AppResult); err != nil {
		return fmt.Errorf("warm-up %s/%d: %w", spec.App, spec.Size, err)
	}
	return nil
}

// ladder offers each fixed rate for an equal share of dur, back to
// back, and returns the throughput achieved at the highest step whose
// p90 latency meets the limit with no growing backlog (0 when none
// does). A step's backlog grows when more of its jobs are still in the
// system at its end than the rate sustains within the limit.
func ladder(ctx context.Context, o *options, rep *report, c *client, rng *rand.Rand, bs baselines, workers int, dur time.Duration) (float64, error) {
	step := dur / time.Duration(len(o.ladder))
	start := time.Now().Add(20 * time.Millisecond)
	var all []*httpJob
	steps := make([][]*httpJob, len(o.ladder))
	for k, r := range o.ladder {
		steps[k] = schedule(rng, start.Add(time.Duration(k)*step), r, step, workers)
		all = append(all, steps[k]...)
	}
	send(ctx, c, all, workers)
	if err := settle(ctx, []*client{c}, all, bs); err != nil {
		return 0, err
	}
	best := 0.0
	for k, jobs := range steps {
		end := start.Add(time.Duration(k+1) * step)
		var lat []float64
		inflight := 0
		var last time.Time
		for _, j := range jobs {
			if j.err != nil {
				lat = append(lat, math.Inf(1)) // a failed or refused job misses the limit
				continue
			}
			lat = append(lat, ms(j.latency()))
			if j.finished().After(end) {
				inflight++
			}
			if j.finished().After(last) {
				last = j.finished()
			}
		}
		p90 := quantile(lat, 0.9)
		allowed := int(math.Ceil(o.ladder[k]*latencyLimit.Seconds())) + workers
		pass := p90 <= ms(latencyLimit) && inflight <= allowed
		thr := ratio(float64(len(jobs)), secs(last.Sub(start.Add(time.Duration(k)*step))))
		rep.note("ladder %.0f jobs/s: %d jobs, p90 %.2f ms (limit %.0f), %d in flight at step end (allowed %d), %.2f jobs/s achieved, pass=%v",
			o.ladder[k], len(jobs), p90, ms(latencyLimit), inflight, allowed, thr, pass)
		if pass {
			best = thr
		}
		for _, j := range jobs {
			rep.attempted++
			if j.err != nil {
				rep.fail("ladder "+j.describe(), j.err)
			}
		}
	}
	return best, nil
}
