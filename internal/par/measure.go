package par

import (
	"math"
	"sync"
	"time"

	"rips/internal/task"
	"rips/internal/topo"
)

// MeasureSystemPhase measures the mean stop-the-world cost of one RIPS
// system phase under a controlled, maximally skewed load: even workers
// hold 2*tasksPerWorker synthetic tasks, odd workers none, so every
// phase plans and applies a heavy migration. It drives the real phase
// protocol (epoch barrier, planner, waved or serial apply) for the
// given number of phases and returns the mean phase time plus the
// number of parallel-apply waves fanned out (0 when serial).
//
// This is the measurement behind `ripsbench parscale -json`'s
// system_phase comparison and mirrors BenchmarkSystemPhase: unlike a
// full app run it cannot under-measure on few cores, where a fast
// worker drains a small workload before any unbalanced phase fires.
func MeasureSystemPhase(workers, tasksPerWorker, phases int, serial bool) (time.Duration, int64) {
	cfg := Config{Topo: topo.SquarishMesh(workers), ParallelApplyMin: -1}
	if serial {
		cfg.ParallelApplyMin = math.MaxInt
	}
	r := newEngine(&cfg)
	fill := func() {
		for _, w := range r.workers {
			w.rte.Clear()
			if w.id%2 == 0 {
				for k := 0; k < 2*tasksPerWorker; k++ {
					w.rte.PushBack(task.Task{Origin: w.id})
				}
			}
		}
	}
	if phases < 1 {
		phases = 1
	}
	for p := 0; p < phases; p++ {
		fill()
		var wg sync.WaitGroup
		for _, w := range r.workers {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				var point int64
				r.phaseStep(w, &point)
			}(w)
		}
		wg.Wait()
	}
	return r.sysTime / time.Duration(phases), r.waves
}
