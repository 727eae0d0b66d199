package par

import (
	"fmt"
	"testing"
	"time"

	"rips/internal/ripsrt"
	"rips/internal/topo"
)

// phaseEngines is the strategy table the phase engine is tested over:
// flat RIPS, Hybrid with two-worker groups (the deque store with
// in-group stealing) and Hybrid with one-worker groups (the queue
// store, planned exactly like RIPS).
var phaseEngines = []struct {
	name     string
	strategy Strategy
	domains  int
	deque    bool // the store the partition implies
}{
	{"rips", RIPS, 0, false},
	{"hybrid-d2", Hybrid, 2, true},
	{"hybrid-d4", Hybrid, 4, false},
}

// TestRIPSPolicies runs the RIPS rows of the engine table through
// testEnginePolicies.
func TestRIPSPolicies(t *testing.T) { testEnginePolicies(t, RIPS) }

// TestHybridPolicies runs the Hybrid rows of the engine table, both
// stores, through testEnginePolicies.
func TestHybridPolicies(t *testing.T) { testEnginePolicies(t, Hybrid) }

// testEnginePolicies runs every Local x Global combination of every
// engine row of strategy s over a 2x2 mesh and checks the answer never
// depends on the policy, the phase summary matches the trace, and the
// per-domain breakdowns appear exactly for Hybrid.
func testEnginePolicies(t *testing.T, s Strategy) {
	for _, e := range phaseEngines {
		if e.strategy != s {
			continue
		}
		cfg := Config{Topo: topo.NewMesh(2, 2), App: queens8(), Strategy: e.strategy, Domains: e.domains, TracePhases: true}
		if got := newEngine(&cfg).workers[0].d != nil; got != e.deque {
			t.Errorf("%s: deque store = %v, want %v", e.name, got, e.deque)
		}
		for _, local := range []ripsrt.LocalPolicy{ripsrt.Lazy, ripsrt.Eager} {
			for _, global := range []ripsrt.GlobalPolicy{ripsrt.Any, ripsrt.All} {
				cfg.Local, cfg.Global = local, global
				res := mustRun(t, cfg)
				label := e.name + " " + global.String() + "-" + local.String()
				checkQueens8(t, res, label)
				if res.Phases == 0 {
					t.Errorf("%s: no system phases ran", label)
				}
				if len(res.PhaseTotals) != int(res.Phases) {
					t.Fatalf("%s: %d phase totals for %d phases", label, len(res.PhaseTotals), res.Phases)
				}
				if res.PhaseTotals[len(res.PhaseTotals)-1] != 0 {
					t.Errorf("%s: final phase total %d, want 0 (termination)", label, res.PhaseTotals[len(res.PhaseTotals)-1])
				}
				var sum int64
				max := 0
				for _, v := range res.PhaseTotals {
					sum += int64(v)
					if v > max {
						max = v
					}
				}
				if res.PhaseSum != sum || res.PhaseMax != max {
					t.Errorf("%s: phase summary sum=%d max=%d, trace says sum=%d max=%d",
						label, res.PhaseSum, res.PhaseMax, sum, max)
				}
				if res.CrossSteals != 0 {
					t.Errorf("%s: %d cross-domain steals; phase-engine stealing stays in-group", label, res.CrossSteals)
				}
				if !e.deque && res.Steals != 0 {
					t.Errorf("%s: %d steals with one-worker groups; there is nobody to steal from", label, res.Steals)
				}
				if e.strategy == RIPS {
					if res.Domains != 0 || res.DomainSteals != nil || res.DomainMigrated != nil {
						t.Errorf("%s: Domains=%d with breakdowns %v/%v, want 0 and nil",
							label, res.Domains, res.DomainSteals, res.DomainMigrated)
					}
					continue
				}
				if res.Domains != e.domains {
					t.Errorf("%s: Domains = %d, want %d", label, res.Domains, e.domains)
				}
				var ds, dm int64
				for _, v := range res.DomainSteals {
					ds += v
				}
				for _, v := range res.DomainMigrated {
					dm += v
				}
				if ds != res.Steals || dm != res.Migrated {
					t.Errorf("%s: domain breakdowns sum to %d/%d, totals are %d/%d",
						label, ds, dm, res.Steals, res.Migrated)
				}
			}
		}
	}
}

// TestCancelRIPS runs the RIPS rows of the engine table through
// testEngineCancel.
func TestCancelRIPS(t *testing.T) { testEngineCancel(t, RIPS) }

// TestHybridCancel runs the Hybrid rows of the engine table, both
// stores, through testEngineCancel.
func TestHybridCancel(t *testing.T) { testEngineCancel(t, Hybrid) }

// testEngineCancel aborts a mid-flight run of every engine row of
// strategy s on every policy pair and checks the workers unwind
// through the epoch barrier promptly, including any worker asleep in
// its detector wait.
func testEngineCancel(t *testing.T, s Strategy) {
	for _, e := range phaseEngines {
		if e.strategy != s {
			continue
		}
		for _, local := range []ripsrt.LocalPolicy{ripsrt.Lazy, ripsrt.Eager} {
			for _, global := range []ripsrt.GlobalPolicy{ripsrt.Any, ripsrt.All} {
				res := runCanceled(t, Config{
					Topo:     topo.NewMesh(2, 2),
					App:      bigQueens(),
					Strategy: e.strategy,
					Domains:  e.domains,
					Local:    local,
					Global:   global,
				}, 20*time.Millisecond)
				if res.Executed == 0 {
					t.Errorf("%s %s-%s: no tasks executed before the cancel landed", e.name, global, local)
				}
			}
		}
	}
}

// TestPhaseEngineTrace pins the phase trace under ALL-Eager, the one
// policy whose trace does not depend on timing: a user phase executes
// exactly the tasks the previous system phase assigned, and their
// children wait in the stage for the next one. The RIPS values are
// the ones the separate RIPS implementation produced before the engine
// was unified; Hybrid with one domain per worker must reproduce them
// exactly, since one-worker groups plan over the machine itself with
// the same queue store.
func TestPhaseEngineTrace(t *testing.T) {
	totals := []int{1, 8, 42, 140, 0}
	for _, c := range []struct {
		topo               topo.Topology
		migrated, nonlocal int64
	}{
		{topo.NewMesh(2, 2), 13, 11},
		{topo.NewTree(7), 25, 15},
		{topo.NewHypercube(3), 26, 16},
	} {
		run := func(s Strategy, domains int) Result {
			return mustRun(t, Config{
				Topo: c.topo, App: queens8(), Strategy: s, Domains: domains,
				Local: ripsrt.Eager, Global: ripsrt.All, TracePhases: true,
			})
		}
		rips := run(RIPS, 0)
		got := fmt.Sprint(rips.PhaseTotals, rips.Migrated, rips.Nonlocal)
		if want := fmt.Sprint(totals, c.migrated, c.nonlocal); got != want {
			t.Errorf("RIPS on %s: trace/migrated/nonlocal = %s, want %s", c.topo.Name(), got, want)
		}
		hyb := run(Hybrid, c.topo.Size())
		if h := fmt.Sprint(hyb.PhaseTotals, hyb.Migrated, hyb.Nonlocal); h != got {
			t.Errorf("Hybrid with one domain per worker on %s: %s, RIPS gives %s", c.topo.Name(), h, got)
		}
	}
}
