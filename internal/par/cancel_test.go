package par

import (
	"errors"
	"testing"
	"time"

	"rips/internal/apps/nqueens"
	"rips/internal/topo"
)

// bigQueens returns a workload long enough that a mid-run cancel is
// guaranteed to land while tasks are still being executed: 15-Queens
// at split depth 4 runs for about a second on a handful of workers
// (13-Queens finishes in ~30ms on a 2-core host, racing the cancel).
func bigQueens() *nqueens.App { return nqueens.New(15, 4) }

// runCanceled runs cfg with a cancel fired after delay and checks the
// common abort contract: ErrCanceled, Canceled set, partial progress.
func runCanceled(t *testing.T, cfg Config, delay time.Duration) Result {
	t.Helper()
	cancel := make(chan struct{})
	cfg.Cancel = cancel
	go func() {
		time.Sleep(delay)
		close(cancel)
	}()
	start := time.Now()
	res, err := Run(cfg)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Run(%s) after cancel: err = %v, want ErrCanceled", cfg.Strategy, err)
	}
	if !res.Canceled {
		t.Errorf("%s: Result.Canceled = false on a canceled run", cfg.Strategy)
	}
	if res.Executed > res.Generated {
		t.Errorf("%s: executed %d > generated %d", cfg.Strategy, res.Executed, res.Generated)
	}
	// The abort must not wedge the barrier: the whole run — including
	// the post-cancel phase drain — has to finish promptly. One second
	// is orders of magnitude above one DetectInterval (100µs) yet far
	// below the full workload's runtime on one core.
	if elapsed > delay+time.Second {
		t.Errorf("%s: canceled run took %v after the %v delay", cfg.Strategy, elapsed, delay)
	}
	return res
}

// TestCancelSteal aborts a work-stealing run: the deques may hold
// abandoned tasks, and the round barrier must skip its emptiness
// invariant rather than fire it.
func TestCancelSteal(t *testing.T) {
	res := runCanceled(t, Config{
		Topo:     topo.NewMesh(2, 2),
		App:      bigQueens(),
		Strategy: Steal,
	}, 20*time.Millisecond)
	if res.Executed == 0 {
		t.Error("Steal: no tasks executed before the cancel landed")
	}
}

// TestCancelBeforeStart closes the channel before Run: the run must
// stop at its first phase boundary with (almost) nothing executed.
func TestCancelBeforeStart(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	res, err := Run(Config{
		Topo:   topo.NewMesh(2, 2),
		App:    bigQueens(),
		Cancel: cancel,
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !res.Canceled {
		t.Error("Result.Canceled = false")
	}
}

// TestCancelUnusedCompletes checks a run that finishes before anyone
// cancels is entirely unaffected by having a Cancel channel armed.
func TestCancelUnusedCompletes(t *testing.T) {
	cancel := make(chan struct{})
	defer close(cancel)
	res, err := Run(Config{
		Topo:   topo.NewMesh(2, 2),
		App:    nqueens.New(8, 3),
		Cancel: cancel,
	})
	if err != nil {
		t.Fatalf("Run with armed cancel: %v", err)
	}
	if res.Canceled {
		t.Error("Result.Canceled = true on a completed run")
	}
	if res.AppResult != 92 {
		t.Errorf("AppResult = %d, want 92", res.AppResult)
	}
}
