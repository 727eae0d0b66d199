//ripslint:allow-file wallclock the sequential baseline Ts is the wall time of rips.Measure, as the paper defines speedup

package main

import (
	"fmt"
	"time"

	"rips"
)

// knownResults are answers fixed by mathematics rather than by this
// program: the number of N-Queens solutions. Every other expected
// answer comes from the set-up's sequential profile.
var knownResults = map[string]int64{
	"nq/11": 2680,
	"nq/12": 14200,
	"nq/13": 73712,
	"nq/14": 365596,
}

// appKey names a registered workload at a size, as ripsd's job spec
// does.
type appKey struct {
	app  string
	size int
}

func (k appKey) String() string { return fmt.Sprintf("%s/%d", k.app, k.size) }

// baseline is one app's sequential reference: the profile that fixes
// the expected answer and task count, and the wall times of all its
// sequential runs (the paper's Ts), in set-up and in the window.
type baseline struct {
	app     rips.App
	prof    rips.Profile
	tasks   int64
	result  int64
	seq     []time.Duration
	corrupt bool
}

// ts is the median sequential wall time.
func (b *baseline) ts() time.Duration { return medianDuration(b.seq) }

// check compares one job's answer with the baseline.
func (b *baseline) check(tasks, result int64) error {
	want := b.result
	if b.corrupt {
		want++
	}
	if tasks != b.tasks || result != want {
		return fmt.Errorf("answer %d with %d tasks, want %d with %d tasks", result, tasks, want, b.tasks)
	}
	return nil
}

// baselines measures each app sequentially with rips.Measure; every
// profile must agree with the first exactly.
type baselines map[appKey]*baseline

// measure profiles each app once: a set-up's cost then tracks the
// apps' sequential speed and nothing else.
func (bs baselines) measure(keys []appKey) error {
	for _, k := range keys {
		if _, err := bs.sample(k); err != nil {
			return err
		}
	}
	return nil
}

// sample runs one sequential profile of k, records its wall time and
// checks it against the first profile.
func (bs baselines) sample(k appKey) (time.Duration, error) {
	b := bs[k]
	if b == nil {
		a, err := rips.LookupApp(k.app, k.size)
		if err != nil {
			return 0, err
		}
		b = &baseline{app: a}
		bs[k] = b
	}
	t0 := time.Now()
	p := rips.Measure(b.app)
	d := time.Since(t0)
	b.seq = append(b.seq, d)
	if len(b.seq) == 1 {
		b.prof, b.tasks, b.result = p, int64(p.Tasks), p.Result
		if want, ok := knownResults[k.String()]; ok && p.Result != want {
			return d, fmt.Errorf("%s: sequential answer %d, want %d", k, p.Result, want)
		}
	} else if int64(p.Tasks) != b.tasks || p.Result != b.result {
		return d, fmt.Errorf("%s: sequential profile changed between runs: %d/%d tasks, answer %d/%d",
			k, p.Tasks, b.tasks, p.Result, b.result)
	}
	return d, nil
}

// corrupt makes the expected answer of the app named by key wrong, so
// every later job of it must be reported as failed.
func (bs baselines) corrupt(key string) {
	for k, b := range bs {
		if k.String() == key {
			b.corrupt = true
		}
	}
}

// seqNsPerTask is the sequential cost per task over a job mix: the
// summed Ts of the jobs over their summed task counts.
func (bs baselines) seqNsPerTask(keys []appKey) float64 {
	var ts, tasks float64
	for _, k := range keys {
		b := bs[k]
		ts += float64(b.ts())
		tasks += float64(b.tasks)
	}
	return ratio(ts, tasks)
}

// seqClock re-measures the apps' sequential times inside a closed
// loop's window: before every block of `every` rotations and once
// after the last. A job's Ts is the mean of the two marks around its
// block, so the paper's Ts/T divides two times measured seconds apart
// on the same host, not a set-up time against a window minutes later:
// a host's single-core speed can drift by 10-20 % over that span.
type seqClock struct {
	bs    baselines
	keys  []appKey
	every int
	marks []map[appKey]time.Duration
	spent time.Duration // wall time of the marks, kept out of the jobs' window
	cpu   time.Duration // this process's CPU time in the marks
}

func newSeqClock(bs baselines, keys []appKey, every int) *seqClock {
	return &seqClock{bs: bs, keys: keys, every: every}
}

// due reports whether rotation rot starts a block.
func (c *seqClock) due(rot int) bool { return rot%c.every == 0 }

// mark measures every app once.
func (c *seqClock) mark() error {
	u0, err := selfUsage()
	if err != nil {
		return err
	}
	t0 := time.Now()
	m := map[appKey]time.Duration{}
	for _, k := range c.keys {
		d, err := c.bs.sample(k)
		if err != nil {
			return err
		}
		m[k] = d
	}
	c.spent += time.Since(t0)
	u1, err := selfUsage()
	if err != nil {
		return err
	}
	c.cpu += u1.cpu - u0.cpu
	c.marks = append(c.marks, m)
	return nil
}

// ts is the Ts of app k for a job of rotation rot, once the final mark
// is taken.
func (c *seqClock) ts(k appKey, rot int) time.Duration {
	b := rot / c.every
	return (c.marks[b][k] + c.marks[b+1][k]) / 2
}
