//ripslint:allow-file wallclock the serving frontend timestamps job lifecycles with real time by design; scheduling decisions inside runs remain deterministic

// Package serve is the scheduler-as-a-service frontend: a long-running
// server that owns one shared Parallel worker pool, accepts workload
// submissions from many tenants, and multiplexes them onto the pool
// (the pool's cores are the scarce resource; the admission stream is
// the paper's "incremental scheduling" arrival stream). Each job's
// per-phase progress and final rips-result/v1 document stream to
// clients over SSE.
//
// Admission is delegated to the internal/tenant arbiter: jobs carry a
// tenant and a priority lane, tenants share the pool by weighted
// deficit round-robin with a bounded per-tenant queue, sub-pool leases
// (rips.Pool.Split) run several small jobs concurrently, and a
// higher-lane job that cannot fit preempts running lower-lane jobs —
// the run is canceled through its context, requeued, and re-run, so
// its final answer is bit-identical to an uncontended run. Terminal
// results are memoized in a cache keyed on the canonical resolved
// config encoding; a byte-identical resubmission settles on arrival
// without occupying a worker.
//
// The server is deliberately a thin shell over the public rips API:
// submissions decode to rips.Config, run through rips.RunProfiledContext
// with the job's context, progress arrives through rips.Config.OnPhase,
// and cancellation — client disconnect, explicit cancel, preemption, or
// drain — travels the same context path every library caller uses.
// Server-level tests assert a served answer is bit-identical to a
// direct RunContext.
package serve

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"rips"
	"rips/internal/cluster"
	"rips/internal/metrics"
	"rips/internal/tenant"
)

// Options configures a Server.
type Options struct {
	// Workers sizes the shared Parallel worker pool (required, >= 1).
	// A submission's machine must fit the pool.
	Workers int
	// Domains partitions the pool's workers into affinity domains
	// (rips.NewPoolDomains): sub-pool leases for small jobs then land
	// inside one domain's cache hierarchy whenever the free set allows.
	// Zero auto-detects the machine's domains; negative is rejected.
	Domains int
	// QueueLimit bounds each tenant's queued (not yet running) jobs:
	// submissions beyond the limit are rejected immediately (HTTP 503)
	// instead of queueing without bound. The bound is per tenant — one
	// tenant's backlog never locks others out. Zero means
	// DefaultQueueLimit.
	QueueLimit int
	// Weights maps tenant names to fairness weights (default 1): a
	// weight-2 tenant receives twice the dispatch budget of a weight-1
	// tenant under saturation.
	Weights map[string]int
	// CacheEntries bounds the result cache. Zero means the tenant
	// package's default.
	CacheEntries int
	// MaxBodyBytes bounds a submission's JSON body. Zero means
	// DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Cluster, when set, is this process's cluster node: submissions
	// with "backend": "cluster" run through it (Node.Submit routes to
	// the job's ring coordinator), and GET /v1/cluster reports its
	// membership. Nil means cluster submissions are rejected.
	Cluster *cluster.Node
}

// Defaults for Options zero values.
const (
	DefaultQueueLimit   = 64
	DefaultMaxBodyBytes = 1 << 20
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrDraining rejects submissions while the server drains.
	ErrDraining = errors.New("serve: server is draining")
	// ErrQueueFull rejects submissions when the submitting tenant's
	// admission queue is at its limit.
	ErrQueueFull = errors.New("serve: admission queue is full")
)

// Server owns the pool, the job table, the tenant arbiter and the
// result cache. Create with NewServer, expose with Handler, stop with
// Drain/Close.
type Server struct {
	opts    Options
	pool    *rips.Pool
	arb     *tenant.Arbiter
	cache   *tenant.Cache
	metrics *metricsRegistry

	// baseCtx parents every job context, so Close cancels all jobs.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// jobsWG counts arbiter-admitted jobs that have not settled; Drain
	// waits on it. idle closes when the post-drain wait finishes.
	jobsWG sync.WaitGroup
	idle   chan struct{}

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for deterministic listing
	nextID   int
	draining bool
}

// NewServer starts the worker pool and the tenant arbiter.
func NewServer(opts Options) (*Server, error) {
	if opts.QueueLimit == 0 {
		opts.QueueLimit = DefaultQueueLimit
	}
	if opts.MaxBodyBytes == 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	pool, err := rips.NewPoolDomains(opts.Workers, opts.Domains)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background()) //ripslint:allow ctxflow the server IS a lifecycle root: this context parents every job and is canceled by Close
	s := &Server{
		opts:       opts,
		pool:       pool,
		cache:      tenant.NewCache(opts.CacheEntries),
		metrics:    newMetricsRegistry(),
		baseCtx:    ctx,
		baseCancel: cancel,
		idle:       make(chan struct{}),
		jobs:       make(map[string]*Job),
	}
	arb, err := tenant.New(tenant.Options{
		Capacity:   opts.Workers,
		DepthLimit: opts.QueueLimit,
		Weights:    opts.Weights,
		Start:      s.startTicket,
		Preempt:    s.preemptTicket,
	})
	if err != nil {
		cancel()
		pool.Close()
		return nil, err
	}
	s.arb = arb
	return s, nil
}

// Workers returns the shared pool's size.
func (s *Server) Workers() int { return s.pool.Workers() }

// poolBacked reports whether a backend runs on real pool workers (and
// so must be charged per node, wired to the shared pool, and leased a
// sub-pool per attempt) rather than on the virtual-time simulator.
func poolBacked(b rips.Backend) bool {
	return b == rips.Parallel || b == rips.Hybrid
}

// Stats snapshots the serving state for GET /v1/stats.
func (s *Server) Stats() (tenant.Stats, tenant.CacheStats, int) {
	return s.arb.Stats(), s.cache.Stats(), s.pool.Free()
}

// Submit validates a submission, admits it to its tenant's queue and
// returns the job. Validation failures are plain errors (HTTP 400);
// ErrDraining and ErrQueueFull are admission failures (HTTP 503). A
// submission whose resolved config matches a cached result settles as
// done immediately without occupying the pool.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	cfg, a, err := s.resolve(&spec)
	if err != nil {
		return nil, err
	}
	ten := spec.Tenant
	if ten == "" {
		ten = DefaultTenant
	}
	prio, err := rips.ParsePriority(spec.Priority)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	// A pool-backed run (Parallel or Hybrid) occupies one pool worker
	// per machine node; a Simulate run's nodes are goroutines of the
	// virtual-time engine, so it is charged a single admission slot.
	cost := 1
	if poolBacked(cfg.Backend) {
		if cost, err = cfg.Nodes(); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	s.nextID++
	id := "job-" + strconv.Itoa(s.nextID)
	ctx, cancel := context.WithCancel(s.baseCtx)
	job := &Job{
		ID:        id,
		Spec:      spec,
		cfg:       cfg,
		app:       a,
		tenant:    ten,
		prio:      prio,
		cacheKey:  tenant.Key(spec.App, spec.Size, rips.EncodeConfig(cfg)),
		metrics:   s.metrics,
		ctx:       ctx,
		cancel:    cancel,
		state:     StateQueued,
		notify:    make(chan struct{}),
		submitted: time.Now(),
	}

	if doc, ok := s.cache.Get(job.cacheKey); ok {
		s.jobs[id] = job
		s.order = append(s.order, id)
		job.settleCached(&doc)
		return job, nil
	}

	tk := &tenant.Ticket{ID: id, Tenant: ten, Lane: prio, Workers: cost, Ref: job}
	// Admitted before arb.Submit: the Start callback can fire (and the
	// job can even settle) inside the Submit call.
	s.jobsWG.Add(1)
	if err := s.arb.Submit(tk); err != nil {
		s.jobsWG.Done()
		cancel()
		var sat *tenant.SaturatedError
		switch {
		case errors.As(err, &sat):
			return nil, fmt.Errorf("%w: tenant %q has %d jobs queued", ErrQueueFull, sat.Tenant, sat.Depth)
		case errors.Is(err, tenant.ErrDraining):
			return nil, ErrDraining
		default:
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	s.jobs[id] = job
	s.order = append(s.order, id)
	return job, nil
}

// resolve decodes and validates a submission against the server's
// defaults: the workload must exist, the backend defaults to Parallel
// on the shared pool, and a zero machine size defaults to the whole
// pool. The returned Config carries no hooks yet — runTicket wires
// those, and swaps the root pool for the job's sub-pool lease.
func (s *Server) resolve(spec *JobSpec) (rips.Config, rips.App, error) {
	a, err := rips.LookupApp(spec.App, spec.Size)
	if err != nil {
		return rips.Config{}, nil, fmt.Errorf("serve: %w", err)
	}
	cfg, err := spec.Config.Decode()
	if err != nil {
		return rips.Config{}, nil, fmt.Errorf("serve: %w", err)
	}
	if spec.Config.Backend == "" {
		// The server's raison d'être is the shared pool; simulation is
		// opt-in ("backend": "simulate").
		cfg.Backend = rips.Parallel
	}
	if cfg.Backend == rips.Cluster && s.opts.Cluster == nil {
		return rips.Config{}, nil, fmt.Errorf("serve: this server is not part of a cluster (start ripsd with -cluster)")
	}
	if cfg.Procs == 0 && cfg.Rows == 0 && cfg.Cols == 0 {
		cfg.Procs = s.pool.Workers()
	}
	if poolBacked(cfg.Backend) {
		cfg.Pool = s.pool
	}
	if err := cfg.Validate(); err != nil {
		return rips.Config{}, nil, err
	}
	return cfg, a, nil
}

// Job returns a job by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// startTicket is the arbiter's Start callback: spawn the run and
// return (the arbiter requires Start not to block).
func (s *Server) startTicket(t *tenant.Ticket) {
	go s.runTicket(t)
}

// preemptTicket is the arbiter's Preempt callback: cancel the job's
// current attempt; runTicket requeues it when the run unwinds.
func (s *Server) preemptTicket(t *tenant.Ticket) {
	t.Ref.(*Job).requestPreempt()
}

// runTicket executes one dispatched attempt of a job on a sub-pool
// lease sized to its machine, then settles, fails, requeues (preempt)
// or retires it with the arbiter. It runs on its own goroutine, once
// per dispatch — a preempted job passes through here again.
func (s *Server) runTicket(t *tenant.Ticket) {
	job := t.Ref.(*Job)
	if job.ctx.Err() != nil {
		// Canceled while still queued: never ran.
		s.finish(t, job, StateCanceled, nil, job.ctx.Err())
		return
	}
	runCtx := job.beginAttempt()
	// The registry measures a workload's sequential profile once per
	// process and keeps it with the shared app.
	p, err := rips.LookupProfile(job.Spec.App, job.Spec.Size)
	if err != nil {
		job.endAttempt()
		s.finish(t, job, StateFailed, nil, fmt.Errorf("serve: %w", err))
		return
	}
	cfg := job.cfg
	if cfg.Backend == rips.Cluster {
		s.runClusterAttempt(t, job, runCtx, p)
		return
	}
	cfg.OnPhase = job.appendPhase
	var sub *rips.Pool
	if poolBacked(cfg.Backend) {
		if sub, err = s.pool.Split(t.Workers); err != nil {
			// The arbiter's ledger guarantees the lease, so this is a
			// closing pool (or a bug): fail the job rather than wedge.
			job.endAttempt()
			s.finish(t, job, StateFailed, nil, err)
			return
		}
		cfg.Pool = sub
	}
	res, err := rips.RunProfiledContext(runCtx, job.app, p, cfg)
	if sub != nil {
		// Before Done/Yielded: the workers must be back in the root's
		// free set before the arbiter can re-lease them.
		sub.Release()
	}
	doc := rips.EncodeResult(job.cfg, res)
	preempted := job.endAttempt()
	switch {
	case res.Canceled && preempted && job.ctx.Err() == nil:
		// Preempted, not canceled by the owner: back to the queue. The
		// partial document is discarded — the next attempt recomputes
		// the full answer, bit-identical to an uncontended run.
		job.markRequeued()
		s.arb.Yielded(t)
	case res.Canceled:
		s.finish(t, job, StateCanceled, &doc, err)
	case err != nil:
		s.finish(t, job, StateFailed, nil, err)
	default:
		s.cache.Put(job.cacheKey, doc)
		s.finish(t, job, StateDone, &doc, nil)
	}
}

// runClusterAttempt executes one attempt of a cluster-backend job:
// the node's Submit routes the rips-job/v1 document to its ring
// coordinator and blocks until the cluster answers. The job occupies
// one admission slot, not a pool lease — the work runs on the cluster
// processes, not the local pool — and streams no phase events: the
// phase protocol runs between processes, out of OnPhase's reach.
// Cancellation still travels the same context path, surfacing as a
// Canceled partial result.
func (s *Server) runClusterAttempt(t *tenant.Ticket, job *Job, runCtx context.Context, p rips.Profile) {
	cres, err := s.opts.Cluster.Submit(runCtx, job.Spec)
	res := clusterResult(cres, p)
	doc := rips.EncodeResult(job.cfg, res)
	preempted := job.endAttempt()
	switch {
	case res.Canceled && preempted && job.ctx.Err() == nil:
		job.markRequeued()
		s.arb.Yielded(t)
	case res.Canceled:
		s.finish(t, job, StateCanceled, &doc, err)
	case err != nil:
		s.finish(t, job, StateFailed, nil, err)
	default:
		s.cache.Put(job.cacheKey, doc)
		s.finish(t, job, StateDone, &doc, nil)
	}
}

// clusterResult folds a cluster outcome into the rips-result/v1 shape:
// counters come from the members' sums, the sequential baseline from
// the cached profile, and the wall-clock efficiency uses the same
// busy/(N*wall) definition as the Parallel backend.
func clusterResult(c cluster.Result, p rips.Profile) rips.Result {
	res := rips.Result{
		Tasks:     c.Generated,
		Nonlocal:  c.Nonlocal,
		Phases:    c.Phases,
		SeqTime:   p.Work,
		Wall:      c.Wall,
		AppResult: c.AppResult,
		Canceled:  c.Canceled,
	}
	if !c.Canceled {
		res.Efficiency = metrics.WallEfficiency(c.Busy, c.Workers, c.Wall)
		res.Speedup = res.Efficiency * float64(c.Workers)
	}
	return res
}

// finish settles a job terminally and retires its ticket.
func (s *Server) finish(t *tenant.Ticket, job *Job, state string, doc *rips.ResultJSON, err error) {
	job.settle(state, doc, err)
	s.arb.Done(t)
	s.jobsWG.Done()
}

// Drain stops admission (new submissions get ErrDraining), lets the
// queued and running jobs finish, and returns when the server is idle
// or the context expires — the SIGTERM path. Safe to call more than
// once.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.arb.Drain()
		go func() {
			s.jobsWG.Wait()
			close(s.idle)
		}()
	}
	s.mu.Unlock()
	select {
	case <-s.idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains with the given context, then cancels whatever is still
// running and releases the pool. The forceful companion to Drain: an
// expired drain context turns into cancellation of the running jobs.
func (s *Server) Close(ctx context.Context) error {
	err := s.Drain(ctx)
	s.baseCancel()
	<-s.idle
	s.pool.Close()
	return err
}
