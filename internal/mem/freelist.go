package mem

import "sync/atomic"

// This file is the simulator-side analog of the paper's §V.B memory pool:
// where internal/mem.Pool models the *simulated* runtime's registered-buffer
// pool (charging virtual time), FreeList removes real malloc/free from the
// simulator's own hot path. Every message/descriptor struct that flows
// through the steady-state event loop — converse envelopes, uGNI CQ event
// nodes, FMA/BTE post descriptors, rendezvous-protocol records — is
// acquired from a FreeList and released at a documented ownership point
// (see DESIGN.md §2.2 "Allocation discipline").

// live counts pooled descriptors currently acquired across every FreeList
// in the process. It is the one process-global the otherwise goroutine-
// confined free lists share, so it is atomic: independent simulations run
// concurrently on the bench harness's point workers (bench.Options.Workers),
// and a torn counter would fail the leak gate spuriously. Each FreeList
// itself stays single-owner — only the shared diagnostic total needs the
// atomics. No analyzer checks that discipline; the CI "Race gate" step
// (`go test -race ./internal/...`) does, through TestWorkerCountInvariance,
// which runs point workers concurrently and reports a DATA RACE if the
// counter goes plain. The leak test asserts this returns to its pre-run
// value after every experiment drains.
var live atomic.Int64

// LiveDescriptors reports how many pooled descriptors are currently
// acquired and not yet released, process-wide. A fully drained simulation
// must bring this back to its value before the run started.
func LiveDescriptors() int64 { return live.Load() }

// FreeList is a typed free list for the simulator's own descriptor
// structs. The zero value is ready to use. Get returns a zeroed *T
// (recycled when available, freshly allocated otherwise); Put zeroes the
// record and recycles it. Not safe for concurrent use — which is the
// point: it lives inside the deterministic single-threaded simulation.
//
// Ownership vocabulary (checked by the simlint poolleak and
// useafterrelease analyzers; DESIGN.md §6 "Ownership rules"):
//
//   - acquire: Get hands the caller exclusive ownership of the record.
//   - release: Put returns ownership to the list; the caller must not
//     touch the record afterwards — the pool may recycle it into another
//     record at any time.
//   - transfer: passing the record to a call, storing it in a field, map,
//     or slice, sending it, or returning it moves ownership to the
//     recipient, which becomes responsible for the eventual Put.
//
// Every acquired record must be released or transferred on every path to
// return; poolleak flags paths that drop one, useafterrelease flags reads
// and double-Puts after release. Functions outside this package that
// acquire or release on a caller's behalf carry //simlint:acquire and
// //simlint:release doc directives so the analyzers see through them.
type FreeList[T any] struct {
	free []*T
	out  int64 // acquired minus released, for leak diagnostics
}

// Get acquires a zeroed record: the caller owns it exclusively until it
// releases it with Put or transfers it (call argument, field/map store,
// return, send).
func (f *FreeList[T]) Get() *T {
	f.out++
	live.Add(1)
	if n := len(f.free); n > 0 {
		x := f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
		return x
	}
	//simlint:allow hotpathalloc -- pool miss path: allocates only while the free list is empty; steady state recycles (each list belongs to one simulation; the only cell bench point workers share is the live counter, which is atomic and held to that by the CI Race gate step)
	return new(T)
}

// Put releases a record back to the list, ending the caller's ownership:
// any later read through the pointer observes a recycled record. It is
// zeroed here so a stale pointer kept past release reads zeros (loudly
// wrong) rather than the next owner's fields (silently wrong), and so the
// list never pins dead payloads for the GC.
func (f *FreeList[T]) Put(x *T) {
	var zero T
	*x = zero
	f.out--
	live.Add(-1)
	f.free = append(f.free, x)
}

// Outstanding reports this list's acquired-minus-released count.
func (f *FreeList[T]) Outstanding() int64 { return f.out }
