//ripslint:allow-file wallclock the benchmark measures the wall time of each rips API call

package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"rips"
)

// strategy is one of the three real shared-memory schedulers.
type strategy struct {
	name string
	cfg  rips.Config
}

// strategies are flat RIPS, Hybrid and work stealing. Hybrid asks for
// two domains: on a single-NUMA-node host auto-detection would give it
// one domain, which makes it plain stealing.
func strategies(workers int) []strategy {
	return []strategy{
		{"rips", rips.Config{Procs: workers, Backend: rips.Parallel}},
		{"hybrid", rips.Config{Procs: workers, Backend: rips.Hybrid, Domains: 2}},
		{"steal", rips.Config{Procs: workers, Backend: rips.Parallel, Algorithm: rips.Steal}},
	}
}

// inprocJob is one call into rips.RunProfiledContext.
type inprocJob struct {
	key        appKey
	strat      string
	start, end time.Time
	res        rips.Result
	err        error
	id         int
	rot        int // rotation it ran in
}

func (j inprocJob) call() time.Duration { return j.end.Sub(j.start) }

// inprocMix is an in-process workload's rotation: how often each app
// runs on each strategy per rotation, how long one rotation takes on
// the reference host (2 cores), which fixes how many rotations a
// window of --seconds holds, and how many rotations run between two
// measurements of Ts (see seqClock), about every two seconds.
type inprocMix struct {
	keys     []appKey
	repeats  []int
	rotation time.Duration
	tsEvery  int
}

// IDA* configuration 2 runs twice per rotation: configurations 1, 2, 3
// then hold a quarter, a half and a quarter of the jobs, which puts p50
// in the middle of the configuration-2 jobs and p90 in the middle of
// the configuration-3 ones instead of on a gap between two classes.
func runInprocIDA(ctx context.Context, o *options, _ *procs) (*report, error) {
	return runInproc(ctx, o, inprocMix{[]appKey{{"ida", 1}, {"ida", 2}, {"ida", 3}}, []int{1, 2, 1}, 6500 * time.Millisecond, 1})
}

func runInprocNQ14(ctx context.Context, o *options, _ *procs) (*report, error) {
	return runInproc(ctx, o, inprocMix{[]appKey{{"nq", 14}}, []int{1}, 500 * time.Millisecond, 4})
}

// rotations is how many whole rotations fill a window: every run of a
// workload measures the same jobs, so a quantile never lands on a
// different mix from run to run.
func rotations(window, rotation time.Duration) int {
	return max(1, int(math.Round(float64(window)/float64(rotation))))
}

// runInproc is the closed loop of one in-process caller running whole
// rotations of (app, strategy) pairs in an order fixed by the seed.
func runInproc(ctx context.Context, o *options, mix inprocMix) (*report, error) {
	keys := mix.keys
	rep := newReport()
	rep.workers = runtime.NumCPU()
	rep.domains = 2
	strats := strategies(rep.workers)

	// Set-up ends with one warm-up job per strategy on the smallest
	// app, so the first timed job pays no lazy set-up.
	bs := baselines{}
	err := setUp(o, rep, bs, keys, func(int) error {
		for _, s := range strats {
			j := runJob(ctx, bs, keys[0], s, 0, nil)
			if j.err != nil {
				return fmt.Errorf("warm-up %s on %s: %w", keys[0], s.name, j.err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(o.seed))
	type pair struct {
		key   appKey
		strat strategy
	}
	var rotation []pair
	for i, k := range keys {
		for _, s := range strats {
			for r := 0; r < mix.repeats[i]; r++ {
				rotation = append(rotation, pair{k, s})
			}
		}
	}
	rng.Shuffle(len(rotation), func(i, j int) { rotation[i], rotation[j] = rotation[j], rotation[i] })

	// window runs the whole rotations that fill dur. Its time and CPU
	// leave out the sequential marks of its clock.
	window := func(dur time.Duration, tr *tracer, pl *phaseLog) ([]inprocJob, *seqClock, time.Duration, usage, error) {
		clock := newSeqClock(bs, keys, mix.tsEvery)
		u0, err := selfUsage()
		if err != nil {
			return nil, nil, 0, usage{}, err
		}
		var jobs []inprocJob
		t0 := time.Now()
		for rot := 0; rot < rotations(dur, mix.rotation); rot++ {
			if clock.due(rot) {
				if err := clock.mark(); err != nil {
					return nil, nil, 0, usage{}, err
				}
			}
			for _, p := range rotation {
				cfg := p.strat
				cfg.cfg.Seed = rng.Int63()
				j := runJob(ctx, bs, p.key, cfg, len(jobs), pl)
				j.rot = rot
				if ctx.Err() != nil {
					return nil, nil, 0, usage{}, ctx.Err()
				}
				if tr != nil {
					traceInproc(tr, pl, j)
				}
				jobs = append(jobs, j)
			}
		}
		if err := clock.mark(); err != nil {
			return nil, nil, 0, usage{}, err
		}
		elapsed := time.Since(t0) - clock.spent
		u1, err := selfUsage()
		if err != nil {
			return nil, nil, 0, usage{}, err
		}
		return jobs, clock, elapsed, usage{cpu: u1.cpu - u0.cpu - clock.cpu, hwmKB: u1.hwmKB}, nil
	}

	dur := o.window()
	if o.trace {
		dur /= 2
	}
	jobs, clock, elapsed, u, err := window(dur, nil, nil)
	if err != nil {
		return nil, err
	}
	good := inprocSamples(rep, jobs, clock)
	endToEnd(rep, good, elapsed, u)
	rep.note("window %.2fs, %d jobs in %d rotations of %d", secs(elapsed), len(jobs), len(jobs)/len(rotation), len(rotation))
	if !o.trace {
		return rep, nil
	}

	tr := newTracer()
	pl := newPhaseLog(1 << 16)
	tjobs, tclock, telapsed, _, err := window(dur, tr, pl)
	if err != nil {
		return nil, err
	}
	tgood := inprocSamples(rep, tjobs, tclock)
	rep.tracer, rep.tracedJobs = tr, len(tjobs)
	if pl.dropped > 0 {
		rep.note("phase log full: %d OnPhase events not recorded", pl.dropped)
	}
	inprocLayers(rep, bs, tjobs, pl)
	untraced := ratio(float64(len(good)), secs(elapsed))
	traced := ratio(float64(len(tgood)), secs(telapsed))
	rep.layer["trace.overhead_frac"] = metric{1 - ratio(traced, untraced), "ratio"}
	return rep, nil
}

// runJob makes one call into the rips API and checks its answer.
func runJob(ctx context.Context, bs baselines, k appKey, s strategy, id int, pl *phaseLog) inprocJob {
	b := bs[k]
	cfg := s.cfg
	if pl != nil {
		pl.job = int32(id)
		cfg.OnPhase = pl.onPhase
	}
	j := inprocJob{key: k, strat: s.name, id: id}
	j.start = time.Now()
	j.res, j.err = rips.RunProfiledContext(ctx, b.app, b.prof, cfg)
	j.end = time.Now()
	if j.err == nil && j.res.Canceled {
		j.err = fmt.Errorf("canceled")
	}
	if j.err == nil {
		j.err = b.check(j.res.Tasks, j.res.AppResult)
	}
	return j
}

// inprocSamples counts a window's jobs and failures and returns the
// correct jobs, each with the Ts its clock measured around it.
func inprocSamples(rep *report, jobs []inprocJob, clock *seqClock) []sample {
	var good []sample
	for _, j := range jobs {
		rep.attempted++
		if j.err != nil {
			rep.fail(fmt.Sprintf("job %s on %s", j.key, j.strat), j.err)
			continue
		}
		good = append(good, sample{group: j.strat, latency: j.call(), wall: j.res.Wall, ts: clock.ts(j.key, j.rot)})
	}
	return good
}

// traceInproc records one job's spans: the loop iteration, the API
// call, and the par run inside it. The run's start is the first
// phase's wall clock minus its Elapsed when phases fired, else the
// call's end minus the run's Wall.
func traceInproc(tr *tracer, pl *phaseLog, j inprocJob) {
	root := tr.add("bench.job", j.start, time.Now(), -1, j.id)
	call := tr.add("rips.call", j.start, j.end, root, j.id)
	runEnd := j.end
	if ev := pl.events(j.id); len(ev) > 0 {
		runStart := time.Unix(0, ev[0].at).Add(-ev[0].elapsed)
		runEnd = runStart.Add(j.res.Wall)
	}
	tr.add("par."+j.strat, runEnd.Add(-j.res.Wall), runEnd, call, j.id)
}

// inprocLayers fills the per-layer metrics of a traced window.
func inprocLayers(rep *report, bs baselines, jobs []inprocJob, pl *phaseLog) {
	var mix []appKey
	var tasks, api []float64
	type agg struct {
		wall, walls, busy, idle, over, nonlocal, tasks, phases, steals []float64
		events, useful                                                 int
		gaps                                                           []float64
	}
	by := map[string]*agg{}
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		mix = append(mix, j.key)
		tasks = append(tasks, float64(j.res.Tasks))
		api = append(api, float64(j.call()-j.res.Wall)/float64(time.Microsecond))
		a := by[j.strat]
		if a == nil {
			a = &agg{}
			by[j.strat] = a
		}
		w := float64(j.res.Wall)
		a.wall = append(a.wall, ms(j.res.Wall))
		a.walls = append(a.walls, w)
		a.busy = append(a.busy, j.res.Efficiency*w)
		a.idle = append(a.idle, float64(j.res.Idle))
		a.over = append(a.over, float64(j.res.Overhead))
		a.nonlocal = append(a.nonlocal, float64(j.res.Nonlocal))
		a.tasks = append(a.tasks, float64(j.res.Tasks))
		a.phases = append(a.phases, float64(j.res.Phases))
		a.steals = append(a.steals, float64(j.res.Steals))
		ev := pl.events(j.id)
		for i, e := range ev {
			a.events++
			if e.moved > 0 {
				a.useful++
			}
			if i > 0 {
				a.gaps = append(a.gaps, ms(e.elapsed-ev[i-1].elapsed))
			}
		}
	}
	sum := func(xs []float64) float64 { return mean(xs) * float64(len(xs)) }
	rep.layer["apps.seq_ns_per_task"] = metric{bs.seqNsPerTask(mix), "ns"}
	rep.layer["apps.tasks_per_job"] = metric{mean(tasks), "count"}
	rep.layer["rips.api_us_per_job"] = metric{median(api), "us"}
	for name, a := range by {
		p := "par." + name + "."
		walls := sum(a.walls)
		rep.layer[p+"wall_ms_p50"] = metric{median(a.wall), "ms"}
		rep.layer[p+"busy_frac"] = metric{ratio(sum(a.busy), walls), "ratio"}
		rep.layer[p+"idle_frac"] = metric{ratio(sum(a.idle), walls), "ratio"}
		rep.layer[p+"nonlocal_frac"] = metric{ratio(sum(a.nonlocal), sum(a.tasks)), "ratio"}
		if name != "steal" {
			rep.layer[p+"overhead_frac"] = metric{ratio(sum(a.over), walls), "ratio"}
			rep.layer[p+"phases_per_job"] = metric{mean(a.phases), "count"}
			rep.layer[p+"useful_phase_frac"] = metric{ratio(float64(a.useful), float64(a.events)), "ratio"}
			rep.layer[p+"phase_gap_ms_p50"] = metric{median(a.gaps), "ms"}
		}
		if name != "rips" {
			rep.layer[p+"steals_per_job"] = metric{mean(a.steals), "count"}
		}
	}
}
