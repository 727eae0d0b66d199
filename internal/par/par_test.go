package par

import (
	"strings"
	"testing"
	"time"

	"rips/internal/apps/nqueens"
	"rips/internal/topo"
)

// queens8 returns a small real workload: 8-Queens has 92 solutions and
// a few hundred tasks at split depth 3.
func queens8() *nqueens.App { return nqueens.New(8, 3) }

func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%s on %s): %v", cfg.Strategy, cfg.Topo.Name(), err)
	}
	return res
}

func checkQueens8(t *testing.T, res Result, label string) {
	t.Helper()
	if res.AppResult != 92 {
		t.Errorf("%s: AppResult = %d, want 92 solutions", label, res.AppResult)
	}
	if res.Executed != res.Generated {
		t.Errorf("%s: executed %d of %d generated", label, res.Executed, res.Generated)
	}
	if res.Wall <= 0 || res.Busy <= 0 {
		t.Errorf("%s: non-positive timings Wall=%v Busy=%v", label, res.Wall, res.Busy)
	}
}

// TestRIPSTopologies checks the tree and hypercube planners drive
// system phases just like the mesh.
func TestRIPSTopologies(t *testing.T) {
	for _, tp := range []topo.Topology{
		topo.NewMesh(1, 1),
		topo.NewMesh(4, 2),
		topo.NewTree(7),
		topo.NewHypercube(3),
	} {
		res := mustRun(t, Config{Topo: tp, App: queens8()})
		checkQueens8(t, res, "RIPS on "+tp.Name())
	}
}

// TestStealWorkers checks the work-stealing strategy across worker
// counts and seeds: steal order may differ, the answer may not.
func TestStealWorkers(t *testing.T) {
	for _, tp := range []topo.Topology{
		topo.NewMesh(1, 1),
		topo.NewMesh(2, 2),
		topo.NewRing(6), // Steal accepts any topology
	} {
		for _, seed := range []int64{1, 42} {
			res := mustRun(t, Config{Topo: tp, App: queens8(), Strategy: Steal, Seed: seed})
			checkQueens8(t, res, "steal on "+tp.Name())
			// Tasks only ever change workers by being stolen, and a
			// stolen task always executes away from its origin — so the
			// two counters must agree exactly, whatever the timing. (On
			// few cores zero steals is legitimate: one worker can drain
			// the whole tree before a thief wakes.)
			if res.Steals != res.Nonlocal {
				t.Errorf("steal on %s: %d steals but %d nonlocal executions", tp.Name(), res.Steals, res.Nonlocal)
			}
		}
	}
}

// TestZeroDetectIntervalTerminates is the regression test for the
// detector-throttle fix: a disabled backoff (negative interval, i.e. a
// zero wait) must still terminate — the phase-indexed request word
// guarantees progress even when every drained worker initiates
// instantly.
func TestZeroDetectIntervalTerminates(t *testing.T) {
	for _, interval := range []time.Duration{-1, time.Microsecond} {
		res := mustRun(t, Config{
			Topo:           topo.NewMesh(2, 2),
			App:            queens8(),
			DetectInterval: interval,
		})
		checkQueens8(t, res, "RIPS with detect interval "+interval.String())
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{App: queens8()}, "Topo is required"},
		{Config{Topo: topo.NewMesh(2, 2)}, "App is nil"},
		{Config{Topo: topo.NewRing(4), App: queens8()}, "no system-phase planner"},
		{Config{Topo: topo.NewMesh(2, 2), App: queens8(), Strategy: Strategy(99)}, "unknown strategy"},
	}
	for _, c := range cases {
		_, err := Run(c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Run(%+v) error = %v, want substring %q", c.cfg, err, c.want)
		}
	}
}

func TestStrategyString(t *testing.T) {
	if RIPS.String() != "rips" || Steal.String() != "steal" {
		t.Fatalf("Strategy strings = %q, %q", RIPS.String(), Steal.String())
	}
}
