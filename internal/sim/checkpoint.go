package sim

import "fmt"

// KernelCheckpoint is a coordinated in-memory snapshot of a kernel taken
// at communication quiescence (DESIGN.md §7 "Node failure and recovery").
// Because a checkpoint is only legal when no events are pending, the
// entire kernel state worth saving collapses to the clock and the
// scheduling-sequence counter: restoring them onto a *fresh* kernel and
// replaying the same workload reproduces the original run bit-identically
// — sequence numbers continue where they left off, so (time, sequence)
// tie-breaks resolve exactly as they would have in an unbroken run.
//
// The snapshot is plain data: serializable and comparable with ==.
type KernelCheckpoint struct {
	// Now is the virtual clock at the checkpoint.
	Now Time
	// LastAt is the timestamp of the most recently fired event.
	LastAt Time
	// Seq is the next scheduling sequence number.
	Seq uint64
	// Fired is the cumulative count of executed events.
	Fired uint64
}

// Advanced returns a copy of the checkpoint with the clock warped forward
// to at — the rollback runner's way of pricing detection delay and
// restart cost into the recovered timeline while keeping virtual time
// monotone. Warping backward is refused: replaying into the past would
// break the single-timeline recovery-latency accounting.
func (ck KernelCheckpoint) Advanced(at Time) KernelCheckpoint {
	if at < ck.Now {
		panic(fmt.Sprintf("sim: KernelCheckpoint.Advanced(%v) before checkpoint time %v", at, ck.Now))
	}
	ck.Now = at
	ck.LastAt = at
	return ck
}

// Checkpoint snapshots the engine. Snapshots are only legal at
// quiescence (Pending() == 0), which is what makes the checkpoint this
// small and the restore this cheap.
func (e *Engine) Checkpoint() (KernelCheckpoint, error) {
	if e.live != 0 {
		return KernelCheckpoint{}, fmt.Errorf("sim: checkpoint with %d events pending", e.live)
	}
	return KernelCheckpoint{Now: e.now, LastAt: e.lastAt, Seq: e.seq, Fired: e.fired}, nil
}

// Restore warps a quiescent engine onto the checkpoint's clock and
// sequence counter. The clock may only move forward.
func (e *Engine) Restore(ck KernelCheckpoint) error {
	if e.live != 0 {
		return fmt.Errorf("sim: restore with %d events pending", e.live)
	}
	if ck.Now < e.now {
		return fmt.Errorf("sim: restore would rewind clock from %v to %v", e.now, ck.Now)
	}
	e.now = ck.Now
	e.lastAt = ck.LastAt
	e.seq = ck.Seq
	e.fired = ck.Fired
	return nil
}
