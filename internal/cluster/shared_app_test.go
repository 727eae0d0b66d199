package cluster

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"rips"
	"rips/internal/apps/nqueens"
)

var sharedFamilies atomic.Int64

// TestClusterBuildsAppOnce: the coordinator and every member session
// resolve a job's app through rips.LookupApp, so three jobs on a
// 2-node in-process cluster build their workload exactly once.
func TestClusterBuildsAppOnce(t *testing.T) {
	// A fresh name per run: RegisterApp refuses duplicates, and -count
	// reruns the test in the same process.
	name := fmt.Sprintf("count-nq8-%d", sharedFamilies.Add(1))
	var builds atomic.Int64
	rips.RegisterApp(name, func(int) (rips.App, error) {
		builds.Add(1)
		return nqueens.New(8, 4), nil // wire-serializable and counted
	})
	nodes := startCluster(t, NewMemTransport(), 2, nil)
	for i := 0; i < 3; i++ {
		via := nodes[i%len(nodes)]
		res, err := via.Submit(context.Background(), clusterSpec(name, 0))
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if res.AppResult != 92 || res.Workers != 2 {
			t.Fatalf("job %d: result %d on %d workers, want 92 on 2", i, res.AppResult, res.Workers)
		}
	}
	if got := builds.Load(); got != 1 {
		t.Errorf("three 2-node jobs built the app %d times, want 1", got)
	}
}
