//ripslint:allow-file wallclock set-up time is the wall time of starting and warming each workload

package main

import (
	"sort"
	"time"
)

// sample is one correct job as the end-to-end metrics see it, however
// it was run.
type sample struct {
	group   string        // strategy or backend; "" reports no speedup.<group>
	latency time.Duration // what the caller waited for the answer
	wall    time.Duration // the run's Result.Wall; 0 for a cache hit, which has no run
	ts      time.Duration // sequential time of the job's app (the paper's Ts)
}

// endToEnd fills the end-to-end metrics of an untraced window from its
// correct jobs, the time the window spent on jobs, and the usage of the
// processes that ran them.
func endToEnd(rep *report, good []sample, span time.Duration, u usage) {
	var lat []float64
	var ts, walls float64
	byGroup := map[string][]float64{}
	for _, s := range good {
		lat = append(lat, ms(s.latency))
		if s.wall > 0 {
			ts += float64(s.ts)
			walls += float64(s.wall)
			if s.group != "" {
				byGroup[s.group] = append(byGroup[s.group], ratio(float64(s.ts), float64(s.wall)))
			}
		}
	}
	rep.e2e["job_ms_p50"] = metric{hdQuantile(lat, 0.5), "ms"}
	rep.e2e["job_ms_p90"] = metric{hdQuantile(lat, 0.9), "ms"}
	if tailOK(len(lat), 0.99) {
		rep.e2e["job_ms_p99"] = metric{hdQuantile(lat, 0.99), "ms"}
	} else {
		rep.note("job_ms_p99 = %.3f ms from only %d jobs (fewer than %d beyond it), not reported",
			hdQuantile(lat, 0.99), len(lat), minSamplesBeyond)
	}
	n := float64(len(good))
	rep.e2e["jobs_per_s"] = metric{ratio(n, secs(span)), "1/s"}
	rep.e2e["failed_frac"] = metric{ratio(float64(rep.failed), float64(rep.attempted)), "ratio"}
	rep.e2e["cpu_ms_per_job"] = metric{ratio(ms(u.cpu), n), "ms"}
	rep.e2e["peak_rss_mb"] = metric{float64(u.hwmKB) / 1024, "MB"}
	if rep.oversubscribed {
		return // no speedup is claimed from an oversubscribed host
	}
	rep.e2e["speedup"] = metric{ratio(ts, walls), "x"}
	groups := make([]string, 0, len(byGroup))
	for g := range byGroup {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		rep.e2e["speedup."+g] = metric{median(byGroup[g]), "x"}
	}
}

// setUp runs --setup-reps set-ups and reports their median as setup_s.
// Each set-up profiles every app of keys sequentially once, which
// fixes the expected answers, then calls start for the workload's own
// part: its servers, health and ring checks, and warm-up jobs.
func setUp(o *options, rep *report, bs baselines, keys []appKey, start func(rep int) error) error {
	var times []time.Duration
	for r := 0; r < o.setupReps; r++ {
		t0 := time.Now()
		if err := bs.measure(keys); err != nil {
			return err
		}
		if err := start(r); err != nil {
			return err
		}
		times = append(times, time.Since(t0))
	}
	rep.e2e["setup_s"] = metric{secs(medianDuration(times)), "s"}
	bs.corrupt(o.corrupt)
	return nil
}
