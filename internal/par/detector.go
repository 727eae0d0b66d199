package par

import "time"

// detector is the adaptive ANY-policy transfer detector of the phase
// engine (RIPS and Hybrid): an EWMA of tasks moved per system phase
// scales the wait a drained worker sits out before publishing the
// transfer request, so near-empty phases back off automatically. The
// leader updates it inside the epoch barrier; workers read the derived
// wait between barriers, ordered by the barrier hand-off. Only the
// timing of phases depends on it — the computed answer never does,
// which difftest cross-validates.
type detector struct {
	cfg  *Config
	ewma float64
	wait time.Duration
}

func newDetector(cfg *Config) detector {
	return detector{cfg: cfg, wait: DefaultDetectInterval}
}

// current is the wait to apply now: the constant Config override when
// set, otherwise the adaptive wait derived from phase yield.
func (d *detector) current() time.Duration {
	if d.cfg.DetectInterval != 0 {
		return d.cfg.detectInterval()
	}
	return d.wait
}

// Adaptive-detector constants: the EWMA keeps adaptEwmaOld of its
// history per phase, and the wait stretches from DefaultDetectInterval
// (phases moving >= one task per party) up to adaptMaxFactor times
// that as the moved-tasks EWMA approaches zero.
const (
	adaptEwmaOld   = 0.75
	adaptMaxFactor = 32
)

// update folds a finished phase's migration volume into the EWMA and
// re-derives the adaptive wait. Phases that move little work are pure
// overhead, so a falling EWMA backs the next request off — which
// removes the one tuning knob the backend had (ROADMAP "Adaptive
// DetectInterval"). parties is the count of balanced groups: workers
// under RIPS, domains under Hybrid.
func (d *detector) update(moved, parties int) {
	d.ewma = adaptEwmaOld*d.ewma + (1-adaptEwmaOld)*float64(moved)
	if d.cfg.DetectInterval != 0 {
		return // constant override or disabled: nothing to adapt
	}
	f := float64(parties) / (d.ewma + 1)
	if f < 1 {
		f = 1
	}
	if f > adaptMaxFactor {
		f = adaptMaxFactor
	}
	d.wait = time.Duration(f * float64(DefaultDetectInterval))
}
