package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDoCoversExactlyOnce: every index in [0, n) is visited exactly once for
// any worker count, including workers > n, zero, and negative.
func TestDoCoversExactlyOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 7, 8, 100} {
		for _, n := range []int{0, 1, 2, 5, 16, 97} {
			hits := make([]int32, n)
			Do(workers, n, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("workers=%d n=%d: bad range [%d,%d)", workers, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

// TestDoSerialOnCallingGoroutine: workers <= 1 must not spawn goroutines —
// fn runs inline, so callers may use non-thread-safe state.
func TestDoSerialOnCallingGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	ran := false
	Do(1, 10, func(lo, hi int) {
		ran = true
		if lo != 0 || hi != 10 {
			t.Errorf("serial range [%d,%d), want [0,10)", lo, hi)
		}
	})
	if !ran {
		t.Fatal("fn never ran")
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutine count grew %d -> %d on serial path", before, after)
	}
}

// TestDoRangesAreOrderedAndContiguous: the ranges tile [0, n) in order with
// no gaps, which is what lets sharded sweeps match serial element order.
func TestDoRangesAreOrderedAndContiguous(t *testing.T) {
	const n = 103
	var mu sync.Mutex
	var ranges [][2]int
	Do(4, n, func(lo, hi int) {
		mu.Lock()
		ranges = append(ranges, [2]int{lo, hi})
		mu.Unlock()
	})
	if len(ranges) > 4 {
		t.Fatalf("got %d ranges for 4 workers", len(ranges))
	}
	covered := make([]bool, n)
	for _, r := range ranges {
		for i := r[0]; i < r[1]; i++ {
			if covered[i] {
				t.Fatalf("index %d covered twice", i)
			}
			covered[i] = true
		}
	}
	for i, c := range covered {
		if !c {
			t.Fatalf("index %d never covered", i)
		}
	}
}

func TestEachCoversExactlyOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 5, 97} {
			hits := make([]int32, n)
			Each(workers, n, func(w, i int) {
				if w < 0 || w >= max(workers, 1) {
					t.Errorf("workers=%d n=%d: worker index %d", workers, n, w)
				}
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestEachSerialInOrder(t *testing.T) {
	var got []int
	Each(1, 6, func(_, i int) { got = append(got, i) })
	for i, v := range got {
		if v != i {
			t.Fatalf("serial order %v, want 0..5", got)
		}
	}
	if len(got) != 6 {
		t.Fatalf("visited %d indices, want 6", len(got))
	}
}

// TestEachBalancesUnevenItems pins the dynamic claiming: with one long item
// first and many short ones after it, the second worker takes every short
// item while the first is still busy, instead of a fixed half of them.
func TestEachBalancesUnevenItems(t *testing.T) {
	const n = 9
	release := make(chan struct{})
	var shortDone atomic.Int32
	Each(2, n, func(_, i int) {
		if i == 0 {
			<-release
			return
		}
		if shortDone.Add(1) == n-1 {
			close(release)
		}
	})
	if got := shortDone.Load(); got != n-1 {
		t.Fatalf("%d short items ran, want %d", got, n-1)
	}
}
