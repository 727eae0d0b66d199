package rips

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rips/internal/apps/nqueens"
)

var testFamilies atomic.Int64

// registerCounting registers a fresh family (a new name per call, so
// repeated test runs never collide) whose builder counts its runs,
// takes delay to build and fails on negative sizes.
func registerCounting(delay time.Duration) (string, *atomic.Int64) {
	name := fmt.Sprintf("test-counting-%d", testFamilies.Add(1))
	builds := new(atomic.Int64)
	RegisterApp(name, func(size int) (App, error) {
		builds.Add(1)
		time.Sleep(delay)
		if size < 0 {
			return nil, fmt.Errorf("test family: negative size %d", size)
		}
		return nqueens.New(6, 2), nil
	})
	return name, builds
}

func tableLen() int {
	appTable.Lock()
	defer appTable.Unlock()
	return len(appTable.m)
}

func inTable(name string, size int) bool {
	appTable.Lock()
	defer appTable.Unlock()
	_, ok := appTable.m[appKey{name, size}]
	return ok
}

// TestLookupAppShared pins that repeated lookups of one (family, size)
// return the one shared instance, built once, while another size is
// another instance.
func TestLookupAppShared(t *testing.T) {
	name, builds := registerCounting(0)
	first, err := LookupApp(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := LookupApp(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("lookup %d returned a different instance", i+2)
		}
	}
	other, err := LookupApp(name, 2)
	if err != nil {
		t.Fatal(err)
	}
	if other == first {
		t.Error("sizes 1 and 2 share an instance")
	}
	if got := builds.Load(); got != 2 {
		t.Errorf("builder ran %d times for two sizes, want 2", got)
	}
}

// TestLookupAppConcurrentFirstBuildsOnce: 16 concurrent first lookups
// of one key wait for a single build and all get its instance.
func TestLookupAppConcurrentFirstBuildsOnce(t *testing.T) {
	name, builds := registerCounting(20 * time.Millisecond)
	const callers = 16
	apps := make([]App, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range apps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			apps[i], errs[i] = LookupApp(name, 3)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range apps {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if apps[i] != apps[0] {
			t.Fatalf("caller %d got a different instance", i)
		}
	}
	if got := builds.Load(); got != 1 {
		t.Errorf("builder ran %d times for %d concurrent first lookups, want 1", got, callers)
	}
}

// TestLookupAppErrorNotStored: a failing size is rebuilt, and fails
// again, on every lookup — an error never occupies the table.
func TestLookupAppErrorNotStored(t *testing.T) {
	name, builds := registerCounting(0)
	for i := 1; i <= 3; i++ {
		if _, err := LookupApp(name, -1); err == nil {
			t.Fatalf("lookup %d of a failing size succeeded", i)
		}
		if got := builds.Load(); got != int64(i) {
			t.Fatalf("after %d failing lookups the builder ran %d times", i, got)
		}
		if inTable(name, -1) {
			t.Fatalf("failed build stored in the table after lookup %d", i)
		}
	}
	if _, err := LookupProfile(name, -1); err == nil {
		t.Error("LookupProfile of a failing size succeeded")
	}
}

// TestLookupAppBuilderPanicReleasesWaiters: a panicking builder must
// not leave its key wedged — the entry leaves the table and the next
// lookup builds again.
func TestLookupAppBuilderPanicReleasesWaiters(t *testing.T) {
	name := fmt.Sprintf("test-panicking-%d", testFamilies.Add(1))
	var builds atomic.Int64
	RegisterApp(name, func(int) (App, error) {
		if builds.Add(1) == 1 {
			panic("test builder panic")
		}
		return nqueens.New(6, 2), nil
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("builder panic did not reach the caller")
			}
		}()
		_, _ = LookupApp(name, 0)
	}()
	if _, err := LookupApp(name, 0); err != nil {
		t.Fatalf("lookup after a panicked build: %v", err)
	}
	if got := builds.Load(); got != 2 {
		t.Errorf("builder ran %d times, want 2", got)
	}
}

// TestAppTableBounded: however many sizes are looked up, the table
// never holds more than appTableCap entries, and it evicts the least
// recently used one.
func TestAppTableBounded(t *testing.T) {
	name, builds := registerCounting(0)
	for size := 0; size < appTableCap; size++ {
		if _, err := LookupApp(name, size); err != nil {
			t.Fatal(err)
		}
	}
	// Touch size 0 so size 1 is now the least recently used.
	if _, err := LookupApp(name, 0); err != nil {
		t.Fatal(err)
	}
	for size := appTableCap; size < 3*appTableCap; size++ {
		if _, err := LookupApp(name, size); err != nil {
			t.Fatal(err)
		}
		if n := tableLen(); n > appTableCap {
			t.Fatalf("table holds %d entries after size %d, capacity %d", n, size, appTableCap)
		}
		if size == appTableCap {
			if !inTable(name, 0) || inTable(name, 1) {
				t.Fatalf("first eviction: size 0 present=%v, size 1 present=%v; want the least recently used (1) evicted",
					inTable(name, 0), inTable(name, 1))
			}
		}
	}
	if got, want := builds.Load(), int64(3*appTableCap); got != want {
		t.Errorf("builder ran %d times for %d distinct sizes", got, want)
	}
}

// TestLookupProfileMeasuredOnce: concurrent first profile requests
// share one sequential measurement, and each caller owns its Rounds.
func TestLookupProfileMeasuredOnce(t *testing.T) {
	name := fmt.Sprintf("test-profiled-%d", testFamilies.Add(1))
	c := &countingApp{App: nqueens.New(6, 2)}
	RegisterApp(name, func(int) (App, error) { return c, nil })
	want := Measure(&countingApp{App: nqueens.New(6, 2)})

	const callers = 8
	profs := make([]Profile, callers)
	var wg sync.WaitGroup
	for i := range profs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := LookupProfile(name, 0)
			if err != nil {
				t.Error(err)
			}
			profs[i] = p
		}(i)
	}
	wg.Wait()
	if got := c.executed.Load(); got != int64(want.Tasks) {
		t.Errorf("%d concurrent profile requests executed %d tasks, want one measurement of %d", callers, got, want.Tasks)
	}
	for i, p := range profs {
		if p.Tasks != want.Tasks || p.Result != want.Result || p.Work != want.Work {
			t.Errorf("caller %d: profile %+v, want %+v", i, p, want)
		}
	}
	profs[0].Rounds[0].Tasks = -1
	if again, _ := LookupProfile(name, 0); again.Rounds[0].Tasks != want.Rounds[0].Tasks {
		t.Error("a caller's edit of Rounds reached the shared profile")
	}
}

// countingApp counts executed tasks of the App it wraps.
type countingApp struct {
	App
	executed atomic.Int64
}

func (c *countingApp) Execute(data any, emit func(Spawn)) Time {
	c.executed.Add(1)
	return c.App.Execute(data, emit)
}
