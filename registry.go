package rips

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"rips/internal/apps/gromos"
	"rips/internal/apps/nqueens"
	"rips/internal/apps/puzzle"
)

// AppBuilder constructs a registered workload family's App at a size.
// The size knob's meaning is the family's own (board size, paper
// configuration, cutoff radius); builders must treat 0 as the family's
// documented default and reject unusable sizes with a descriptive
// error.
//
// The App a builder returns is shared: LookupApp builds each (family,
// size) once per process and hands the same instance to every caller,
// including concurrent jobs. It must therefore honour the App
// contract strictly — state set up by the builder is never written
// again, Execute is safe to call from many goroutines at once — and
// Roots must return a fresh slice on every call.
type AppBuilder func(size int) (App, error)

// appRegistry is the process-wide family-name → builder table behind
// RegisterApp/LookupApp/Apps. Every surface that resolves a workload
// by name — ripsd submissions, cluster peers re-resolving a forwarded
// job, ripsbench and the difftest harness — goes through this one
// table, so a name means the same workload everywhere.
var appRegistry = struct {
	sync.RWMutex
	m map[string]AppBuilder
}{m: map[string]AppBuilder{}}

// RegisterApp registers a workload family under a name, making it
// resolvable by LookupApp (and thereby submittable to ripsd and
// runnable on cluster peers, which re-resolve forwarded jobs by name —
// a family must be registered identically in every process of a
// cluster). Registration is typically done from an init function; the
// name must be non-empty and not yet taken, and the builder non-nil —
// violations panic, like duplicate http.Handle patterns, because they
// are programmer errors no caller can meaningfully handle. The
// builder's App is shared across concurrent jobs; see AppBuilder for
// what that demands of it.
func RegisterApp(name string, build AppBuilder) {
	if name == "" || build == nil {
		panic("rips: RegisterApp with an empty name or nil builder")
	}
	appRegistry.Lock()
	defer appRegistry.Unlock()
	if _, dup := appRegistry.m[name]; dup {
		panic(fmt.Sprintf("rips: RegisterApp(%q): family already registered", name))
	}
	appRegistry.m[name] = build
}

// LookupApp resolves a registered workload family at a size (0 means
// the family's default). Unknown names are errors listing the known
// families, so a mistyped submission tells the client what exists.
//
// The first lookup of a (family, size) runs its builder — for IDA*
// that is a sequential bound-discovery search — and every later one,
// from any goroutine, returns the same shared App, so a ripsd
// submission, its cluster coordinator and every member session pay
// for one build between them. Concurrent first lookups wait for a
// single build. A builder error is returned but not kept: the next
// lookup builds again. The table holds at most appTableCap workloads
// and evicts the least recently used, so client-chosen sizes cannot
// grow it without limit.
func LookupApp(name string, size int) (App, error) {
	e, err := builtEntry(name, size)
	if err != nil {
		return nil, err
	}
	return e.app, nil
}

// LookupProfile returns the sequential Profile of the workload
// LookupApp(name, size) resolves. It is measured once, on the first
// request, and kept with the shared App: Measure runs the whole
// workload on one goroutine, far too costly to repeat per job.
// Concurrent first requests wait for a single measurement.
func LookupProfile(name string, size int) (Profile, error) {
	e, err := builtEntry(name, size)
	if err != nil {
		return Profile{}, err
	}
	e.profOnce.Do(func() { e.prof = Measure(e.app) })
	p := e.prof
	p.Rounds = slices.Clone(p.Rounds) // the caller's copy to keep or modify
	return p, nil
}

// appTableCap bounds the table of built workloads. It is a constant,
// not an option: a server resolves whatever sizes clients submit, and
// the bound is what keeps that from growing memory without limit.
const appTableCap = 16

type appKey struct {
	name string
	size int
}

// builtApp is one entry of the table: a workload built once, and its
// sequential profile, measured on first request.
type builtApp struct {
	key   appKey
	ready chan struct{} // closed once app or err is set
	app   App
	err   error
	used  uint64 // appTable.clock at the latest lookup, for LRU eviction

	profOnce sync.Once
	prof     Profile
}

// appTable holds the built workloads behind LookupApp and
// LookupProfile.
var appTable = struct {
	sync.Mutex
	m     map[appKey]*builtApp
	clock uint64
}{m: map[appKey]*builtApp{}}

// builtEntry returns the table entry of (name, size), building the app
// on a miss. The caller that misses builds outside the lock; callers
// arriving meanwhile find the entry and wait for its ready channel.
func builtEntry(name string, size int) (*builtApp, error) {
	appRegistry.RLock()
	build, ok := appRegistry.m[name]
	appRegistry.RUnlock()
	if !ok {
		known := Apps()
		return nil, fmt.Errorf("rips: unknown app family %q (registered: %v)", name, known)
	}
	k := appKey{name, size}
	appTable.Lock()
	appTable.clock++
	e, hit := appTable.m[k]
	if !hit {
		if len(appTable.m) >= appTableCap {
			evictLRU()
		}
		e = &builtApp{key: k, ready: make(chan struct{})}
		appTable.m[k] = e
	}
	e.used = appTable.clock
	appTable.Unlock()
	if !hit {
		e.build(build)
	}
	<-e.ready
	if e.err != nil {
		return nil, e.err
	}
	return e, nil
}

// build runs the builder and publishes its outcome. A failed build —
// an error, no app, or a panic — leaves the table before ready closes,
// so its waiters get the error and the next lookup builds afresh.
func (e *builtApp) build(b AppBuilder) {
	defer func() {
		if e.err == nil && e.app == nil {
			e.err = fmt.Errorf("rips: building app %q at size %d produced no app", e.key.name, e.key.size)
		}
		if e.err != nil {
			appTable.Lock()
			if appTable.m[e.key] == e {
				delete(appTable.m, e.key)
			}
			appTable.Unlock()
		}
		close(e.ready)
	}()
	e.app, e.err = b(e.key.size)
}

// evictLRU drops the least recently used entry; appTable must be
// locked. Callers already holding the entry keep their App.
func evictLRU() {
	var victim *builtApp
	for _, e := range appTable.m {
		if victim == nil || e.used < victim.used {
			victim = e
		}
	}
	delete(appTable.m, victim.key)
}

// Apps returns the registered family names, sorted — the stable
// vocabulary a server can advertise.
func Apps() []string {
	appRegistry.RLock()
	defer appRegistry.RUnlock()
	names := make([]string, 0, len(appRegistry.m))
	for name := range appRegistry.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// The built-in families: the paper's three applications, under the
// names the parscale experiment introduced. Their size semantics are
// part of the serving API surface (see JobSpec).
func init() {
	RegisterApp("nq", func(size int) (App, error) {
		if size == 0 {
			size = 13
		}
		if size < 4 {
			return nil, fmt.Errorf("rips: nq size %d (want a board of at least 4)", size)
		}
		return nqueens.New(size, 4), nil
	})
	RegisterApp("ida", func(size int) (App, error) {
		if size == 0 {
			size = 1
		}
		if size < 1 || size > 3 {
			return nil, fmt.Errorf("rips: ida size %d (want a paper configuration 1..3)", size)
		}
		return puzzle.Config(size), nil
	})
	RegisterApp("gromos", func(size int) (App, error) {
		if size == 0 {
			size = 8
		}
		if size < 1 {
			return nil, fmt.Errorf("rips: gromos size %d (want a positive cutoff in angstroms)", size)
		}
		return gromos.New(float64(size)), nil
	})
}
