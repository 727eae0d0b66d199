//ripslint:allow-file wallclock the phase engine measures actual elapsed time by design; scheduling decisions depend only on task counts, never on the clock

package par

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"rips/internal/app"
	"rips/internal/invariant"
	"rips/internal/metrics"
	"rips/internal/ripsrt"
	"rips/internal/sched"
	"rips/internal/task"
	"rips/internal/topo"
)

// This file is the phase-protocol engine behind both the RIPS and the
// Hybrid strategies. Its balancing unit is a group: a contiguous worker
// block [lo, hi) that a system phase treats as one node of the plan.
// RIPS is n one-worker groups planned over Config.Topo; Hybrid is
// resolveDomains groups planned over domainTopology, whose members also
// steal from each other during user phases. Everything else — the
// barrier protocol, ANY detection, cancellation, round detection,
// planning, wave-parallel plan application and the invariants — is one
// code path.
//
// The task store follows from the partition, never from a knob: when
// every group has one worker nobody can steal, so each worker keeps the
// allocation-free FIFO task.Queue; as soon as some group has several
// workers, every worker keeps a Chase-Lev deque its group-mates steal
// from, the only store that is correct with thieves.

// worker is one worker's private state. Only its owner touches it
// during user phases (group-mates steal through the deque's own
// synchronization); the epoch barrier hands it to the phase protocol
// during system phases.
type worker struct {
	counters
	id  int
	grp int // index into engine.groups

	// The store: rte when every group has one worker, the deque d
	// (non-nil) otherwise; see the file comment.
	rte   task.Queue
	d     *deque
	stage []task.Task // ready to schedule (Eager local policy)

	// scratch collects the children of the task in hand; it is reused
	// across execute calls so the steady-state user phase allocates
	// nothing. emit is the spawn callback bound to scratch once at
	// construction — rebuilding the closure per task would allocate.
	scratch []task.Task
	emit    func(app.Spawn)

	rng    *rand.Rand // deque store's victim rotation; never affects the answer
	steals int64
}

func (w *worker) newID() uint64 {
	w.seq++
	return packID(w.id, w.seq)
}

// load is the number of tasks in w's store; exact with the world
// stopped, which is when the phase protocol reads it.
func (w *worker) load() int {
	if w.d != nil {
		return int(w.d.size())
	}
	return w.rte.Len()
}

// pop removes w's next own task: FIFO from the queue, LIFO (depth
// first) from the deque.
func (w *worker) pop() (task.Task, bool) {
	if w.d != nil {
		if t := w.d.pop(); t != nil {
			return *t, true
		}
		return task.Task{}, false
	}
	return w.rte.PopFront()
}

// pushAll files ts onto w's store. Callers reuse ts (stage, scratch,
// exchange buffers) while the deque keeps pointers to what it is
// handed, so the deque store copies ts into a fresh batch first.
func (w *worker) pushAll(ts []task.Task) {
	if w.d == nil {
		w.rte.PushAll(ts)
		return
	}
	batch := make([]task.Task, len(ts)) //ripslint:allow hotpath deque store only: its pointers need a batch that outlives the reused caller slice; one-worker-group runs take the queue branch above
	copy(batch, ts)
	for i := range batch {
		w.d.push(&batch[i]) //ripslint:allow hotpath deque store only: the ring grows to its high-water mark; one-worker-group runs take the queue branch above
	}
}

// takeInto moves up to len(dst) tasks out of w's store for migration
// and returns the count; stopped world only. The queue gives up its
// back, so tasks that arrived in this same phase are forwarded first
// and resident ones stay home (the locality preference of Theorem 2).
// The deque gives up its steal end: the oldest, typically largest
// subtrees, exactly the tasks a thief would have taken.
func (w *worker) takeInto(dst []task.Task) int {
	if w.d != nil {
		return w.d.takeTopInto(dst)
	}
	return w.rte.TakeBackInto(dst)
}

// group is one contiguous worker block [lo, hi) acting as a single node
// of the plan. Worker lo is the group leader: it alone runs the group's
// take and push halves of plan application.
type group struct {
	lo, hi int
	// cpus is the CPU set the group's workers pin to. Only Hybrid
	// groups get one, and only on machines with a visible multi-node
	// topology, where pinning is more than a no-op constraint.
	cpus []int
	// xbuf is the group's migration exchange buffer: every system phase
	// stages the tasks the group exports into disjoint regions of xbuf,
	// reusing the array across phases. xneed is the phase's required
	// length, staged by the phase leader with the world stopped; the
	// group leader grows xbuf on its own (possibly pinned) thread, so a
	// grown buffer is first-touched on the group's node. Writers: the
	// group leader during the take half (or the phase leader under
	// serial apply). Readers: each move's destination group leader
	// during the push half, ordered by the exchange sub-barrier.
	xbuf     []task.Task
	xneed    int
	migrated int64
}

// applyMove is one plan move staged for application: count tasks from
// group from to group to, parked in from's exchange buffer at
// [off, off+count). got is the number actually taken — written by the
// taker, read by the pusher across the exchange sub-barrier.
type applyMove struct {
	from, to, count int
	off             int
	got             int
}

// engine is the shared state of one RIPS or Hybrid run.
type engine struct {
	cfg     *Config
	n       int
	workers []*worker
	groups  []group
	gtopo   topo.Topology // the machine the planner sees: one node per group
	bar     *epochBarrier

	// req is the ANY detector: the highest user-phase index for which a
	// transfer has been requested (-1 initially). The first drained
	// worker of phase p publishes p with a compare-and-swap — exactly
	// the phase-indexed init broadcast of the simulator runtime, with
	// redundant initiators cancelled by the CAS instead of by message
	// filtering.
	req atomic.Int64

	// beginFn/endFn are the leader callbacks bound once: passing a
	// fresh method value to await on every phase would allocate on the
	// hot path.
	beginFn, endFn func()

	// cancel is the abort flag mirrored from Config.Cancel by a watcher
	// goroutine (see watchCancel); workers poll it between tasks and
	// the leader honours it at the next phase boundary, so the barrier
	// itself never wedges on a canceled run.
	cancel atomic.Bool
	// start anchors the Elapsed field of OnPhase snapshots.
	start time.Time

	// Phase state below is written only inside barrier callbacks (the
	// world is stopped) or read by workers between barriers; the
	// barrier's mutex hand-off orders every access.
	round      int
	done       bool
	stopped    bool // done because of cancellation, not completion
	err        error
	phases     int64
	migrated   int64
	waves      int64
	sysTime    time.Duration
	phaseStart time.Time
	phaseTotal int // global task total snapshotted by the phase in flight
	phaseMoved int // tasks the phase in flight migrates (plan cost)

	// Bounded phase-total summary; the full per-phase trace is recorded
	// only under Config.TracePhases so long runs stop growing memory
	// per phase.
	phaseSum    int64
	phaseMax    int
	phaseTotals []int

	// Reusable system-phase buffers, one entry per group (zero
	// steady-state allocations): loads is the snapshot, avail/pend are
	// wave-partition scratch, moves/waveEnds hold the staged plan.
	loads    []int
	avail    []int
	pend     []int
	moves    []applyMove
	waveEnds []int

	// det is the adaptive ANY detector (see detector.go): leader-written
	// inside the barrier, worker-read during user phases.
	det detector
}

// newEngine builds the run state — group partition, CPU sets, the
// planner's machine, workers — without starting the workers;
// benchmarks and phase-level tests drive the returned engine directly
// through phaseStep.
func newEngine(cfg *Config) *engine {
	n := cfg.Topo.Size()
	ng := n
	var cpus [][]int
	if cfg.Strategy == Hybrid {
		_, hypercube := cfg.Topo.(*topo.Hypercube)
		ng = resolveDomains(cfg.Domains, n, hypercube)
		cpus = domainCPUs(ng)
	}
	r := &engine{
		cfg:     cfg,
		n:       n,
		gtopo:   domainTopology(cfg.Topo, ng),
		bar:     newEpochBarrier(n),
		loads:   make([]int, ng),
		avail:   make([]int, ng),
		pend:    make([]int, ng),
		det:     newDetector(cfg),
		workers: make([]*worker, 0, n),
		start:   time.Now(),
	}
	r.req.Store(-1)
	r.beginFn = r.beginPhase
	r.endFn = r.finishPhase
	for g, b := range domainBlocks(n, ng) {
		grp := group{lo: b[0], hi: b[1]}
		if cpus != nil {
			grp.cpus = cpus[g]
		}
		r.groups = append(r.groups, grp)
		for i := grp.lo; i < grp.hi; i++ {
			w := &worker{id: i, grp: g}
			if ng < n {
				w.d = newDeque()
				w.rng = rand.New(rand.NewSource(cfg.Seed ^ int64(i)*0x9e3779b9))
			}
			// The emit closure runs inside every task execution; the
			// traversal cannot follow the application's dynamic call back
			// to it, so it is rooted explicitly.
			//ripslint:hotpath
			w.emit = func(sp app.Spawn) {
				id := w.newID()
				w.scratch = append(w.scratch, task.Task{ID: id, Origin: w.id, Size: sp.Size, Data: sp.Data}) //ripslint:allow hotpath scratch retains its capacity across tasks; steady-state growth is zero and TestSteadyStateZeroAlloc pins it
			}
			r.workers = append(r.workers, w)
		}
	}
	return r
}

// runPhases runs a RIPS or Hybrid config to completion.
func runPhases(cfg *Config, d driver) (Result, error) {
	r := newEngine(cfg)
	r.loadRoots(0)
	if cfg.Cancel != nil {
		stop := watchCancel(cfg.Cancel, &r.cancel)
		defer stop()
	}

	r.start = time.Now()
	d.dispatch(r.n, r.workerMain)
	wall := time.Since(r.start)

	res := Result{
		Workers:     r.n,
		Overhead:    r.sysTime,
		Migrated:    r.migrated,
		Phases:      r.phases,
		Waves:       r.waves,
		PhaseSum:    r.phaseSum,
		PhaseMax:    r.phaseMax,
		PhaseTotals: r.phaseTotals,
		Canceled:    r.stopped,
	}
	if cfg.Strategy == Hybrid {
		// Only Hybrid reports domains; RIPS workers never steal.
		res.Domains = len(r.groups)
		res.DomainSteals = make([]int64, res.Domains)
		res.DomainMigrated = make([]int64, res.Domains)
		for _, w := range r.workers {
			res.Steals += w.steals
			res.DomainSteals[w.grp] += w.steals
		}
		for g := range r.groups {
			res.DomainMigrated[g] = r.groups[g].migrated
		}
	}
	assemble(&res, wall, r.workers, func(w *worker) *counters { return &w.counters })
	return res, r.err
}

// loadRoots stages a round's root tasks: block-distributed apps start
// with each worker owning its slice, all others start at worker 0 and
// let the first system phase spread the work (the paper's SPMD start).
// Called single-threaded (before the workers start) or by the phase
// leader (inside the barrier).
func (r *engine) loadRoots(round int) {
	roots := r.cfg.App.Roots(round)
	spread := app.RootsDistributed(r.cfg.App)
	for i, w := range r.workers {
		lo, hi := 0, 0
		if spread {
			lo, hi = app.RootBlock(len(roots), r.n, i)
		} else if i == 0 {
			hi = len(roots)
		}
		batch := make([]task.Task, hi-lo)
		for k, sp := range roots[lo:hi] {
			batch[k] = task.Task{ID: w.newID(), Origin: i, Size: sp.Size, Data: sp.Data}
		}
		w.pushAll(batch)
		w.generated += int64(hi - lo)
	}
}

// workerMain runs one worker. A worker of a group with a CPU set first
// locks its OS thread and pins it there. A pinning failure is
// deliberately not an error: the worker runs unpinned — the protocol
// is correct either way, pinning only improves locality — which is the
// clean-fallback contract the affinity shim documents.
func (r *engine) workerMain(id int) {
	w := r.workers[id]
	if cpus := r.groups[w.grp].cpus; len(cpus) > 0 {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		if restore, err := affinityPin(cpus); err == nil {
			defer restore()
		}
	}
	r.phaseLoop(w)
}

// phaseLoop is one worker's phase loop: a system phase at every
// barrier epoch, then a user phase until the transfer condition fires.
//
//ripslint:hotpath
func (r *engine) phaseLoop(w *worker) {
	var point int64
	for r.phaseStep(w, &point) {
		r.userPhase(w, r.phases-1, &point)
	}
}

// phaseStep runs one complete system phase from w's perspective and
// reports whether the run continues. The phase is a short barrier
// protocol rather than a single leader callback:
//
//  1. every worker collapses its own staged tasks into its store (in
//     parallel, before the world stops);
//  2. the last arrival becomes the leader and runs beginPhase with the
//     world stopped: snapshot, round detection, planning, and the
//     partition of the move list into two-phase waves;
//  3. for each wave, every group leader concurrently takes its group's
//     outgoing moves into the group's exchange buffer, all workers
//     cross the exchange sub-barrier, then every group leader
//     concurrently pushes its incoming moves — so plan application
//     runs on one core per group instead of one in total;
//  4. the final sub-barrier's leader runs finishPhase (invariants,
//     detector adaptation, timing).
//
// Small plans skip step 3 entirely: beginPhase applies them serially
// and the wave list comes back empty (see Config.ParallelApplyMin).
func (r *engine) phaseStep(w *worker, point *int64) bool {
	// Schedule-perturbation point (no-op unless built with
	// -tags ripsperturb): jitter this worker's barrier arrival so
	// stress runs explore adversarial epoch interleavings.
	*point++
	perturb(w.id, *point)
	// Leftover tasks are rescheduled together with the staged ones
	// (paper Section 2); each worker collapses its own stage.
	w.pushAll(w.stage)
	w.stage = w.stage[:0]
	r.bar.await(r.beginFn)
	if r.done { // leader decision, ordered by the barrier
		return false
	}
	for wv := 0; wv < len(r.waveEnds); wv++ {
		r.applyTake(w, wv)
		*point++
		perturb(w.id, *point)
		r.bar.await(nil) // exchange sub-barrier: all takes land before any push
		r.applyPush(w, wv)
		*point++
		perturb(w.id, *point)
		if wv == len(r.waveEnds)-1 {
			r.bar.await(r.endFn)
		} else {
			r.bar.await(nil) // wave boundary: forwarded tasks are now takeable
		}
	}
	return true
}

// userPhase executes tasks until this phase's transfer condition is
// met. Under ANY a worker holding tasks honours a transfer request
// only after finishing the task in hand — and executes at least one
// task if it has any, which guarantees global progress (every system
// phase is separated by at least one real execution somewhere). A
// drained worker first tries to steal from its group-mates (deque
// store only), then requests the transfer itself after the detector
// interval. Under ALL there is nothing to signal: draining IS the
// local condition, and the epoch barrier completes exactly when every
// worker has drained.
func (r *engine) userPhase(w *worker, phase int64, point *int64) {
	executed := false
	for {
		if r.cancel.Load() {
			return // abort: head straight for the phase barrier
		}
		if executed && r.cfg.Global == ripsrt.Any && r.req.Load() >= phase {
			return // someone requested the transfer; one task finished since
		}
		tk, ok := w.pop()
		if !ok && w.d != nil {
			// Perturbation point (no-op unless -tags ripsperturb): jitter
			// the thief between its empty pop and the steal sweep, the
			// window where owner pushes race thieves.
			*point++
			perturb(w.id, *point)
			if tk, ok = r.stealLocal(w); ok { //ripslint:allow hotpath deque store only: victim rotation draws from the worker's rng; one-worker-group runs never steal
				w.steals++
			}
		}
		if !ok {
			if r.cfg.Global == ripsrt.All || r.cancel.Load() {
				return // drained: the local condition holds
			}
			if tk, ok = r.initiate(w, phase); !ok {
				return
			}
			w.steals++ // work appeared in the group during the detector wait
		}
		r.execute(w, tk)
		executed = true
	}
}

// stealLocal sweeps w's group-mates once in random rotation and
// returns the first stolen task. The victim set is the group block —
// O(group size) deque probes, all on the group's own node.
func (r *engine) stealLocal(w *worker) (task.Task, bool) {
	g := &r.groups[w.grp]
	size := g.hi - g.lo
	if size < 2 {
		return task.Task{}, false
	}
	off := w.rng.Intn(size)
	for k := 0; k < size; k++ {
		v := g.lo + (off+k)%size
		if v == w.id {
			continue
		}
		for {
			t, retry := r.workers[v].d.steal()
			if t != nil {
				return *t, true
			}
			if !retry {
				break
			}
		}
	}
	return task.Task{}, false
}

// initiate publishes the ANY transfer request for this phase, waiting
// the detector interval first so that a momentary drain during the
// initial fan-out does not trigger a storm of nearly-empty phases. The
// wait ends early once another worker has requested the transfer.
// Under the deque store, group-mates may make new work stealable
// meanwhile, so every sleep slice first re-polls the group; a stolen
// task is returned and resumes the user phase instead of requesting a
// transfer the group does not need.
func (r *engine) initiate(w *worker, phase int64) (task.Task, bool) {
	if r.req.Load() >= phase {
		return task.Task{}, false
	}
	// Sleep in slices of at most the base interval, re-checking the
	// abort flag between slices: a canceled run must not sit out the
	// full adaptive backoff (up to 32x base) before its drained workers
	// reach the barrier.
	for d := r.det.current(); d > 0 && !r.cancel.Load(); {
		if w.d != nil {
			if tk, ok := r.stealLocal(w); ok { //ripslint:allow hotpath deque store only: victim rotation draws from the worker's rng; one-worker-group runs never steal
				return tk, true
			}
		}
		s := d
		if s > DefaultDetectInterval {
			s = DefaultDetectInterval
		}
		//ripslint:allow hotpath a drained worker sleeping out the detector interval is the sanctioned idle wait of the ANY protocol
		time.Sleep(s) //ripslint:allow sleep the (possibly adaptive) detector interval delays the ANY request, mirroring the simulator's InitBackoff; it never changes what is computed
		d -= s
		if r.req.Load() >= phase {
			return task.Task{}, false
		}
	}
	if r.cancel.Load() {
		return task.Task{}, false // abort: no point requesting a transfer nobody will serve
	}
	// Perturbation point: delay the request CAS so redundant
	// initiators of the same phase really race each other.
	perturb(w.id, phase)
	for {
		cur := r.req.Load()
		if cur >= phase || r.req.CompareAndSwap(cur, phase) {
			return task.Task{}, false // published, or a concurrent initiator won
		}
	}
}

// execute runs one task for real and files its children per the local
// policy. The children land in the worker's reusable scratch buffer,
// so the steady-state user phase performs no allocations of its own
// (the queue and stage arrays retain their capacity across phases).
func (r *engine) execute(w *worker, tk task.Task) {
	if tk.Origin != w.id {
		w.nonlocal++
	}
	w.executed++
	w.scratch = w.scratch[:0]
	start := time.Now()
	vw, res := app.ExecuteCount(r.cfg.App, tk.Data, w.emit)
	w.busy += time.Since(start)
	w.vwork += vw
	w.appResult += res
	if len(w.scratch) > 0 {
		w.generated += int64(len(w.scratch))
		if r.cfg.Local == ripsrt.Eager {
			w.stage = append(w.stage, w.scratch...) //ripslint:allow hotpath the stage array retains its capacity across phases; steady-state growth is zero (TestSteadyStateZeroAlloc pins it)
		} else {
			w.pushAll(w.scratch)
		}
	}
}

// beginPhase runs with the world stopped (every worker parked in the
// epoch barrier, stages already collapsed): it snapshots the per-group
// loads, detects round boundaries, runs the pure walking algorithm of
// the group machine and stages the plan for application. Large plans
// are partitioned into waves for the group leaders to apply
// concurrently; small ones are applied by the leader on the spot.
//
// It is a hot-path root of its own: the barrier invokes it through a
// pre-bound function value (r.beginFn), which the traversal cannot
// follow past the waived leader() call site in barrier.go.
//
//ripslint:hotpath
func (r *engine) beginPhase() {
	if r.cancel.Load() {
		// Abort, decided by the leader with the world stopped: every
		// worker is parked in this barrier, so setting done here is the
		// "barrier wakeup" — all of them observe it on release and exit
		// together. Nothing is planned or moved; the stores keep the
		// abandoned tasks.
		r.stopped = true
		r.done = true
		return
	}
	r.phaseStart = time.Now()
	r.moves = r.moves[:0]
	r.waveEnds = r.waveEnds[:0]
	r.phaseMoved = 0

	total := 0
	for i := range r.loads {
		r.loads[i] = 0
	}
	for _, w := range r.workers {
		x := w.load()
		r.loads[w.grp] += x
		total += x
	}
	r.phaseTotal = total
	r.phases++
	r.phaseSum += int64(total)
	if total > r.phaseMax {
		r.phaseMax = total
	}
	if r.cfg.TracePhases {
		r.phaseTotals = append(r.phaseTotals, total) //ripslint:allow hotpath opt-in tracing grows the trace by design; steady-state runs keep TracePhases off
	}

	if total == 0 {
		// Zero global total detects the round boundary, exactly like
		// the simulator runtime: quiescence at the barrier makes the
		// snapshot exact, so no pending counter is needed.
		r.round++
		//ripslint:allow hotpath round boundary (zero global total): one dispatch per round, outside the steady state
		if r.round >= r.cfg.App.Rounds() {
			r.done = true
			r.finishPhase()
			return
		}
		r.loadRoots(r.round) //ripslint:allow hotpath round boundary restaging allocates once per round, outside the steady state
		r.finishPhase()
		return
	}
	if balancedCanonical(r.loads, total) {
		// Theorem 1 already holds at the exact quota positions (always
		// so for a single group, where stealing is the whole story):
		// there is nothing to plan or move. Skipping the planner keeps
		// balanced steady-state phases allocation-free (the planners
		// build fresh trace vectors on every call).
		r.finishPhase()
		return
	}

	//ripslint:allow hotpath the planners build fresh trace vectors by design; balanced steady-state phases never reach them (balancedCanonical short-circuits above)
	plan, planTotal, err := planLoads(r.gtopo, r.loads)
	if err != nil {
		r.err = err
		r.done = true
		return
	}
	if invariant.Enabled() && planTotal != total {
		invariant.Violated("par: planner saw %d tasks, snapshot had %d", planTotal, total)
	}
	r.phaseMoved = plan.Cost()
	r.migrated += int64(r.phaseMoved)
	r.stageMoves(plan.Moves)

	if r.phaseMoved < r.cfg.parallelApplyMin() {
		// Leader-only apply: per the phase-cost model (DESIGN.md §9) a
		// small plan cannot amortize the extra sub-barrier crossings,
		// so the leader applies it alone, move by move in plan order.
		for g := range r.groups {
			r.ensureXbuf(&r.groups[g])
		}
		for i := range r.moves {
			mv := &r.moves[i]
			r.takeMove(mv)
			r.pushMove(mv)
		}
		r.moves = r.moves[:0]
		r.finishPhase()
		return
	}
	r.partitionWaves()
	r.waves += int64(len(r.waveEnds))
}

// finishPhase closes the system phase: Theorem 1 (every group within
// one task of its quota after a planned phase) and conservation are
// invariant-checked on every real phase, the adaptive detector folds
// in the phase's yield, and the stop-the-world time is charged. It
// runs as the leader callback of the last sub-barrier (or inline from
// beginPhase when no waves were fanned out).
//
//ripslint:hotpath
func (r *engine) finishPhase() {
	if total := r.phaseTotal; total > 0 {
		after := r.avail // scratch; offsets and the wave partition are done with it
		for g := range after {
			after[g] = 0
		}
		for _, w := range r.workers {
			after[w.grp] += w.load()
		}
		sum := 0
		for g, x := range after {
			sum += x
			invariant.BalancedWithinOne(x, total, len(after), g, "par: system phase")
		}
		invariant.Conserved(total, sum, "par: system phase")
	}
	r.det.update(r.phaseMoved, len(r.groups))
	r.sysTime += time.Since(r.phaseStart)
	if h := r.cfg.OnPhase; h != nil {
		//ripslint:allow hotpath OnPhase observer contract: the hook runs inside the stopped world and is documented to be allocation-conscious
		h(metrics.PhaseInfo{
			Phase:   r.phases,
			Round:   r.round,
			Tasks:   r.phaseTotal,
			Moved:   r.phaseMoved,
			Elapsed: time.Since(r.start),
		})
	}
}

// balancedCanonical reports whether loads already sit at the exact
// Theorem 1 quota — floor(total/n) everywhere, plus one on the first
// total mod n nodes — the fixed point every walking algorithm drives
// toward.
func balancedCanonical(loads []int, total int) bool {
	n := len(loads)
	lo, rem := total/n, total%n
	for i, x := range loads {
		q := lo
		if i < rem {
			q++
		}
		if x != q {
			return false
		}
	}
	return true
}

// stageMoves turns the plan into applyMoves with disjoint exchange
// regions: each move parks its tasks in the source group's xbuf at a
// unique offset, and each group's required buffer length and export
// volume are recorded. avail doubles as per-group offset scratch here;
// it is re-derived from loads before the wave partition.
func (r *engine) stageMoves(moves []sched.Move) {
	off := r.avail
	for i := range off {
		off[i] = 0
	}
	for _, m := range moves {
		r.moves = append(r.moves, applyMove{from: m.From, to: m.To, count: m.Count, off: off[m.From]}) //ripslint:allow hotpath r.moves retains its capacity across phases; growth amortizes to zero
		off[m.From] += m.Count
		r.groups[m.From].migrated += int64(m.Count)
	}
	for g := range r.groups {
		r.groups[g].xneed = off[g]
	}
}

// ensureXbuf sizes g's exchange buffer for the phase.
func (r *engine) ensureXbuf(g *group) {
	if cap(g.xbuf) < g.xneed {
		g.xbuf = make([]task.Task, g.xneed) //ripslint:allow hotpath exchange buffers grow to the high-water mark once, then are reused every phase
	} else {
		g.xbuf = g.xbuf[:g.xneed]
	}
}

// partitionWaves splits the staged moves into contiguous-prefix waves:
// within a wave every take is satisfiable from the wave-start loads,
// so all takes may run concurrently before any push. Because the plan
// is sequentially feasible, the first move after a wave boundary is
// always satisfiable, so every wave makes progress and the wave count
// is bounded by the plan's forwarding depth (at most the diameter of
// the group machine).
func (r *engine) partitionWaves() {
	avail, pend := r.avail, r.pend
	copy(avail, r.loads)
	for i := range pend {
		pend[i] = 0
	}
	for i := range r.moves {
		mv := &r.moves[i]
		if avail[mv.from] < mv.count {
			// mv forwards tasks still in flight: close the wave (its
			// pushes land at the boundary) and retry in the next one.
			r.waveEnds = append(r.waveEnds, i) //ripslint:allow hotpath waveEnds retains its capacity across phases; growth amortizes to zero
			for g := range pend {
				avail[g] += pend[g]
				pend[g] = 0
			}
			if avail[mv.from] < mv.count {
				invariant.Violated("par: move %d->%d x%d infeasible at a wave boundary: plan not sequentially feasible",
					mv.from, mv.to, mv.count)
			}
		}
		avail[mv.from] -= mv.count
		pend[mv.to] += mv.count
	}
	r.waveEnds = append(r.waveEnds, len(r.moves)) //ripslint:allow hotpath waveEnds retains its capacity across phases; growth amortizes to zero
}

// waveRange returns the [lo, hi) index range of wave wv in r.moves.
func (r *engine) waveRange(wv int) (int, int) {
	lo := 0
	if wv > 0 {
		lo = r.waveEnds[wv-1]
	}
	return lo, r.waveEnds[wv]
}

// applyTake is the take half of one wave from w's perspective: only a
// group leader acts, extracting every move its group sources into the
// group's exchange buffer. Only the leader touches its group's stores
// and buffer here, so all groups' takes run concurrently; quiescence
// at the barrier makes bulk deque takes safe without CAS traffic.
func (r *engine) applyTake(w *worker, wv int) {
	g := &r.groups[w.grp]
	if w.id != g.lo {
		return
	}
	r.ensureXbuf(g)
	lo, hi := r.waveRange(wv)
	for i := lo; i < hi; i++ {
		if mv := &r.moves[i]; mv.from == w.grp {
			r.takeMove(mv)
		}
	}
}

// applyPush is the push half: the destination group's leader lands
// every move its group receives. The exchange sub-barrier ordered
// every take before any push, so the source regions are stable; only
// the leader writes its group's stores.
func (r *engine) applyPush(w *worker, wv int) {
	if w.id != r.groups[w.grp].lo {
		return
	}
	lo, hi := r.waveRange(wv)
	for i := lo; i < hi; i++ {
		if mv := &r.moves[i]; mv.to == w.grp {
			r.pushMove(mv)
		}
	}
}

// takeMove extracts one move's tasks into the source group's exchange
// region, sweeping the group's workers in order.
func (r *engine) takeMove(mv *applyMove) {
	g := &r.groups[mv.from]
	seg := g.xbuf[mv.off : mv.off+mv.count]
	got := 0
	for i := g.lo; i < g.hi && got < mv.count; i++ {
		got += r.workers[i].takeInto(seg[got:])
	}
	mv.got = got
	if got != mv.count {
		invariant.Violated("par: group %d short %d tasks for migration", mv.from, mv.count-got)
	}
}

// pushMove lands one move's tasks on the destination group, split into
// near-even contiguous runs over its workers, and clears the exchange
// region so payload references are not retained across the next user
// phase.
func (r *engine) pushMove(mv *applyMove) {
	seg := r.groups[mv.from].xbuf[mv.off : mv.off+mv.got]
	dst := &r.groups[mv.to]
	size := dst.hi - dst.lo
	for k := 0; k < size; k++ {
		r.workers[dst.lo+k].pushAll(seg[len(seg)*k/size : len(seg)*(k+1)/size])
	}
	for i := range seg {
		seg[i] = task.Task{}
	}
}
