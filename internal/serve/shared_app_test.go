package serve

import (
	"fmt"
	"sync/atomic"
	"testing"

	"rips"
	"rips/internal/app"
	"rips/internal/apps/nqueens"
	"rips/internal/sim"
)

var sharedFamilies atomic.Int64

// countedNQ is 8-Queens counting the tasks it executes.
type countedNQ struct {
	*nqueens.App
	executed *atomic.Int64
}

func (c countedNQ) Execute(data any, emit func(app.Spawn)) sim.Time {
	w, _ := c.ExecuteCount(data, emit)
	return w
}

func (c countedNQ) ExecuteCount(data any, emit func(app.Spawn)) (sim.Time, int64) {
	c.executed.Add(1)
	return c.App.ExecuteCount(data, emit)
}

// TestServeBuildsAndProfilesOnce: two submissions of one workload,
// running at once, share one build and one sequential profile — every
// task executed belongs to one of the two runs or to the single
// profile measurement.
func TestServeBuildsAndProfilesOnce(t *testing.T) {
	name := fmt.Sprintf("count-nq8-%d", sharedFamilies.Add(1))
	var builds, executed atomic.Int64
	rips.RegisterApp(name, func(int) (rips.App, error) {
		builds.Add(1)
		return countedNQ{nqueens.New(8, 4), &executed}, nil
	})
	s := newTestServer(t, Options{Workers: 4})
	var jobs []*Job
	for procs := 1; procs <= 2; procs++ {
		// Distinct configs, so the second job is not a result-cache hit.
		job, err := s.Submit(JobSpec{App: name, Config: rips.ConfigJSON{Procs: procs, Backend: "simulate"}})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	var tasks int64
	for i, job := range jobs {
		snap := waitTerminal(t, job)
		if snap.State != StateDone || snap.Result == nil {
			t.Fatalf("job %d: state %q, err %q", i, snap.State, snap.Err)
		}
		if snap.Result.AppResult != 92 {
			t.Fatalf("job %d: app result %d, want 92", i, snap.Result.AppResult)
		}
		tasks = snap.Result.Tasks
	}
	if got := builds.Load(); got != 1 {
		t.Errorf("two submissions built the app %d times, want 1", got)
	}
	if got, want := executed.Load(), 3*tasks; got != want {
		t.Errorf("executed %d tasks, want %d: two runs and one profile of %d tasks each", got, want, tasks)
	}
}
