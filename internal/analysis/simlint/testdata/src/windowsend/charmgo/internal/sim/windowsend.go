// Package sim is the windowsend fixture: scheduling discipline inside a
// window. Worker-side code may book events only on its own shard's
// engine; scheduling through the coordinator (ShardedEngine), through
// the Kernel interface (dynamic dispatch may resolve to the
// coordinator), or on an engine reached via the coordinator's routing
// tables bypasses the lookahead horizon. The sanctioned cross-shard path
// is the Shard.Send outbox.
package sim

// Time is virtual time.
type Time int64

// Kernel is the scheduling surface shared by flat and sharded engines.
type Kernel interface {
	At(t Time, fn func())
	AtArg(t Time, fn func(any), arg any)
}

// Engine is one shard's private event queue.
type Engine struct{ now Time }

func (e *Engine) At(t Time, fn func())                {}
func (e *Engine) AtArg(t Time, fn func(any), arg any) {}
func (e *Engine) Schedule(delay Time, fn func())      {}

// ShardedEngine is the coordinator: it routes bookings across shards.
type ShardedEngine struct{ shards []*Engine }

func (se *ShardedEngine) At(t Time, fn func())                {}
func (se *ShardedEngine) AtArg(t Time, fn func(any), arg any) {}

// crossEvent is one buffered cross-shard booking.
type crossEvent struct {
	at Time
	fn func()
}

// Shard is one worker's handle.
type Shard struct {
	eng  *Engine
	se   *ShardedEngine //simlint:shared -- fixture: coordinator backref
	k    Kernel
	out  [][]crossEvent //simlint:outbox -- fixture: per-destination buffers
	work chan Time
	done chan uint64
}

// bookLocal schedules on the shard's own engine: the sanctioned
// in-window path, clean.
func (s *Shard) bookLocal(h Time) {
	s.eng.At(h, nil)
	s.eng.Schedule(1, nil)
}

// bookCoord schedules through the coordinator from worker-reachable
// code: the routing tables would book into another shard mid-window.
func (s *Shard) bookCoord(h Time) {
	s.se.AtArg(h, nil, nil) // want `shard worker schedules through the coordinator \(ShardedEngine.AtArg\)`
}

// bookIface schedules through the Kernel interface: dynamic dispatch may
// resolve to the coordinator.
func (s *Shard) bookIface(h Time) {
	s.k.AtArg(h, nil, nil) // want `shard worker schedules through the Kernel interface`
}

// bookPeer reaches another shard's engine via the coordinator: an Engine
// receiver, but the receiver expression traverses the ShardedEngine.
func (s *Shard) bookPeer(h Time) {
	s.se.shards[0].At(h, nil) // want `schedules on an engine reached through the coordinator`
}

// Send is the audited cross-shard verb: exempt from the worker-side
// scan even though it consults the coordinator.
//
//simlint:outbox-transfer -- fixture: sanctioned hand-off
func (s *Shard) Send(dst int, at Time, fn func()) {
	s.out[dst] = append(s.out[dst], crossEvent{at: at, fn: fn})
}

// start spawns the annotated worker; the body books locally (clean) and
// through the coordinator (flagged).
//
//simlint:shard-worker -- fixture: window worker
func start(sh *Shard) {
	work, done := sh.work, sh.done
	//simlint:shard-worker -- fixture: worker loop
	go func() {
		for {
			h, ok := <-work
			if !ok {
				return
			}
			sh.eng.At(h, nil)
			sh.se.At(h, nil) // want `shard worker schedules through the coordinator \(ShardedEngine.At\)`
			done <- 1
		}
	}()
}

// coordSide runs at the barrier, outside the worker closure: scheduling
// through the coordinator is its job.
func coordSide(se *ShardedEngine, h Time) {
	se.AtArg(h, nil, nil)
}

// newKernel materializes the kernel.
func newKernel(n int) *ShardedEngine {
	se := &ShardedEngine{}
	for i := 0; i < n; i++ {
		eng := &Engine{}
		se.shards = append(se.shards, eng)
		sh := &Shard{eng: eng, se: se, k: eng, out: make([][]crossEvent, n),
			work: make(chan Time), done: make(chan uint64)}
		start(sh)
	}
	return se
}
