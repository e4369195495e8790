// Package par provides the bounded fork-join helpers behind the tuner's
// multicore paths. Do splits work into contiguous index ranges, one per
// worker, so a parallel run touches exactly the same elements in exactly the
// same per-element order as a serial one — callers that write only to
// disjoint per-index slots therefore produce bit-identical results for any
// worker count, which is the determinism contract the tuner's tests pin.
// Each hands out single indices as workers free up, for items whose costs
// differ too much for fixed ranges; it keeps the same contract, since every
// index is still visited exactly once.
package par

import (
	"sync"
	"sync/atomic"
)

// Do partitions [0, n) into at most `workers` contiguous ranges and calls
// fn(lo, hi) for each, concurrently when workers > 1. fn must be safe to run
// concurrently with itself on disjoint ranges. workers <= 1 (or n <= 1) runs
// fn(0, n) on the calling goroutine with zero overhead.
func Do(workers, n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Each calls fn(w, i) once for every i in [0, n) on up to `workers`
// goroutines; w in [0, workers) names the goroutine making the call, so fn
// can keep per-worker scratch in a slice indexed by w. Each goroutine
// claims the lowest unclaimed index whenever it is free, so items start in
// increasing index order and no worker idles while work remains: put the
// expensive items first and the cheap ones fill in around them. fn must be
// safe to run concurrently with itself on distinct indices. workers <= 1
// (or n <= 1) runs the loop on the calling goroutine, as worker 0.
func Each(workers, n int, fn func(w, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}
