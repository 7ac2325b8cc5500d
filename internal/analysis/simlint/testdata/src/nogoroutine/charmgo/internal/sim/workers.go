// Package sim is a nogoroutine fixture for the kernel package: internal/sim
// has no goroutine exception. A coordinator/worker pair over work and done
// channels is rejected like any other goroutine, and the retired
// //simlint:shard-worker annotation grants nothing.
package sim

type shard struct {
	work chan int64
	done chan uint64
}

func (s *shard) run(horizon int64) uint64 { return uint64(horizon) }

// start spawns a window-worker loop with no annotation.
func start(s *shard) {
	s.work = make(chan int64)  // want `channel creation in simulation code`
	s.done = make(chan uint64) // want `channel creation in simulation code`
	work, done := s.work, s.done
	go func() { // want `goroutine in simulation code`
		for {
			horizon, ok := <-work // want `channel receive in simulation code`
			if !ok {
				return
			}
			done <- s.run(horizon) // want `channel send in simulation code`
		}
	}()
}

// coordinate carries the retired annotation; its channel traffic is still
// rejected.
//
//simlint:shard-worker -- fixture: retired verb, no longer an exception
func coordinate(s *shard) uint64 {
	s.work <- 100   // want `channel send in simulation code`
	return <-s.done // want `channel receive in simulation code`
}

// stop closes the work channel.
func stop(s *shard) {
	close(s.work) // want `closing a channel in simulation code`
}
