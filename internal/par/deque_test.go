package par

import (
	"sync"
	"sync/atomic"
	"testing"

	"rips/internal/task"
)

func TestDequeOwnerLIFO(t *testing.T) {
	d := newDeque()
	if got := d.pop(); got != nil {
		t.Fatalf("pop of empty deque = %v, want nil", got)
	}
	const n = 200 // crosses the initial ring capacity, exercising grow
	for i := uint64(0); i < n; i++ {
		d.push(&task.Task{ID: i})
	}
	if got := d.size(); got != n {
		t.Fatalf("size = %d, want %d", got, n)
	}
	for i := uint64(n); i > 0; i-- {
		got := d.pop()
		if got == nil || got.ID != i-1 {
			t.Fatalf("pop = %v, want ID %d", got, i-1)
		}
	}
	if got := d.pop(); got != nil {
		t.Fatalf("pop after drain = %v, want nil", got)
	}
}

func TestDequeStealFIFO(t *testing.T) {
	d := newDeque()
	if _, retry := d.steal(); retry {
		t.Fatal("steal of empty deque reported retry")
	}
	for i := uint64(0); i < 10; i++ {
		d.push(&task.Task{ID: i})
	}
	for i := uint64(0); i < 10; i++ {
		tk, _ := d.steal()
		if tk == nil || tk.ID != i {
			t.Fatalf("steal = %v, want ID %d", tk, i)
		}
	}
	if tk, retry := d.steal(); tk != nil || retry {
		t.Fatalf("steal after drain = (%v, %v), want (nil, false)", tk, retry)
	}
}

// TestDequeConcurrent has one owner pushing and popping against
// several thieves; every task must be consumed exactly once. Run
// under -race this also proves the memory-ordering discipline.
func TestDequeConcurrent(t *testing.T) {
	const (
		thieves = 4
		total   = 20000
	)
	d := newDeque()
	consumed := make([]atomic.Int32, total)
	record := func(tk *task.Task) {
		if n := consumed[tk.ID].Add(1); n != 1 {
			t.Errorf("task %d consumed %d times", tk.ID, n)
		}
	}
	var left atomic.Int64
	left.Store(total)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // owner: push all, popping every third task along the way
		defer wg.Done()
		for i := uint64(0); i < total; i++ {
			d.push(&task.Task{ID: i})
			if i%3 == 0 {
				if tk := d.pop(); tk != nil {
					record(tk)
					left.Add(-1)
				}
			}
		}
		for {
			tk := d.pop()
			if tk == nil {
				if left.Load() == 0 {
					return
				}
				continue
			}
			record(tk)
			left.Add(-1)
		}
	}()
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for left.Load() > 0 {
				tk, _ := d.steal()
				if tk != nil {
					record(tk)
					left.Add(-1)
				}
			}
		}()
	}
	wg.Wait()

	for i := range consumed {
		if consumed[i].Load() != 1 {
			t.Fatalf("task %d consumed %d times, want exactly once", i, consumed[i].Load())
		}
	}
}

// TestTakeTopInto unit-tests the quiescent bulk take: tasks leave from
// the steal end in FIFO order, the remainder pops LIFO as usual, and
// over-asking takes exactly what is there.
func TestTakeTopInto(t *testing.T) {
	d := newDeque()
	tasks := make([]task.Task, 6)
	for i := range tasks {
		tasks[i] = task.Task{ID: uint64(i)}
		d.push(&tasks[i])
	}
	dst := make([]task.Task, 4)
	if got := d.takeTopInto(dst); got != 4 {
		t.Fatalf("takeTopInto(4 of 6) = %d", got)
	}
	for i := 0; i < 4; i++ {
		if dst[i].ID != uint64(i) {
			t.Errorf("taken[%d].ID = %d, want %d (FIFO from the steal end)", i, dst[i].ID, i)
		}
	}
	if tk := d.pop(); tk == nil || tk.ID != 5 {
		t.Errorf("pop after bulk take = %v, want ID 5 (LIFO bottom)", tk)
	}
	big := make([]task.Task, 8)
	if got := d.takeTopInto(big); got != 1 || big[0].ID != 4 {
		t.Errorf("takeTopInto(8 of 1) = %d, big[0]=%v; want 1 task with ID 4", got, big[0])
	}
	if got := d.takeTopInto(big); got != 0 {
		t.Errorf("takeTopInto(empty) = %d, want 0", got)
	}
}
