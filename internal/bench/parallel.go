package bench

import (
	"runtime"
	"sync"
)

// This file is the harness half of the wall-clock story. The full machine
// stack runs on the flat kernel, one goroutine per simulation — but an
// experiment is many independent simulations: one per data point.
// forEachPoint fans those across worker goroutines. Safety rests on an
// audit of shared state: every package-level mutable in the simulation
// stack is either read-only (md systems, ssse solution counts),
// mutex-protected (mem.SlabCache construction slabs), or atomic
// (mem.LiveDescriptors) — each simulation is otherwise confined to the
// goroutine that built it. Determinism rests on slot-by-index writes:
// point i always lands in slot i, whatever order the workers finish in, so
// rendered tables are byte-identical at any worker count.

// forEachPoint runs fn(0..n-1), fanning across min(o.Workers, n,
// GOMAXPROCS) worker goroutines (sequentially when that is <= 1). The
// GOMAXPROCS clamp matters: a simulation point's working set is large,
// and interleaving more concurrently-active points than there are CPUs
// evicts each one's state without any parallelism to pay for it. fn must
// write its result into a preallocated slot for its index and must not
// touch other slots.
func (o Options) forEachPoint(n int, fn func(i int)) {
	workers := o.Workers
	if workers > n {
		workers = n
	}
	if p := runtime.GOMAXPROCS(0); workers > p {
		workers = p
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}
