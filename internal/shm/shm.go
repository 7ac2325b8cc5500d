// Package shm models the POSIX-shared-memory intra-node channel (pxshm)
// of paper Section IV-C. Two variants are modelled:
//
//   - DoubleCopy: the sender copies the message into the shared region and
//     the receiver copies it out (the classic producer-consumer scheme).
//   - SingleCopy: the sender copies into the shared region; because the
//     CHARM++ runtime owns all message buffers, the receiver delivers the
//     shared buffer to the application without a second copy.
//
// Costs are pure host-CPU charges plus a small notification latency; no NIC
// resources are used, which is exactly why the paper prefers this path for
// intra-node messages (it keeps the Gemini NIC free for inter-node traffic).
package shm

import (
	"charmgo/internal/mem"
	"charmgo/internal/sim"
)

// Mode selects the copy discipline.
type Mode int

const (
	// DoubleCopy copies on both the sender and receiver sides.
	DoubleCopy Mode = iota
	// SingleCopy copies only on the sender side.
	SingleCopy
)

// String names the mode.
func (m Mode) String() string {
	if m == SingleCopy {
		return "single-copy"
	}
	return "double-copy"
}

// Model holds the pxshm cost constants.
type Model struct {
	Mem           mem.CostModel
	FenceCost     sim.Time // lock/memory-fence per enqueue or dequeue
	NotifyLatency sim.Time // time until the receiver's poll observes the flag
	PollCost      sim.Time // receiver-side check that finds a message
}

// DefaultModel returns calibrated constants.
func DefaultModel() Model {
	return Model{
		Mem:           mem.DefaultCostModel(),
		FenceCost:     80 * sim.Nanosecond,
		NotifyLatency: 250 * sim.Nanosecond,
		PollCost:      70 * sim.Nanosecond,
	}
}

// SendCost reports the sender-side CPU charge: allocation bookkeeping in
// the shared region, the copy in, and the fence.
func (m Model) SendCost(size int, mode Mode) sim.Time {
	return m.FenceCost + m.Mem.Memcpy(size)
}

// RecvCost reports the receiver-side CPU charge. Under DoubleCopy this
// includes the copy out of the shared region; under SingleCopy only the
// poll and fence.
func (m Model) RecvCost(size int, mode Mode) sim.Time {
	c := m.PollCost + m.FenceCost
	if mode == DoubleCopy {
		c += m.Mem.Memcpy(size)
	}
	return c
}

// Latency reports the flight time between the sender finishing its copy and
// the receiver being able to observe the message.
func (m Model) Latency() sim.Time { return m.NotifyLatency }

// Loopback is the pxshm channel viewed as a sim.NICEngine, so machine
// layers book intra-node handoffs through the same interface as the
// Gemini FMA/BTE/SMSG/MSGQ engines. Shared memory has no serially
// reusable hardware to contend for — the copies are host-CPU charges the
// layer books on PE resources — so Ready is the identity and Transfer
// books nothing: it reports the notification flight time.
type Loopback struct {
	eng       *sim.Engine
	m         Model
	name      sim.Name
	transfers uint64
}

var _ sim.NICEngine = (*Loopback)(nil)

// NewLoopback returns the pxshm engine for one node's shared segment.
func NewLoopback(eng *sim.Engine, m Model, name sim.Name) *Loopback {
	return &Loopback{eng: eng, m: m, name: name}
}

// Name labels the engine for diagnostics.
func (l *Loopback) Name() string { return l.name.String() }

// Ready implements sim.NICEngine: shared memory is always ready.
func (l *Loopback) Ready(at sim.Time) sim.Time { return at }

// Serialization reports the in-memory copy cost for a payload.
func (l *Loopback) Serialization(size int) sim.Time { return l.m.Mem.Memcpy(size) }

// Transfer reports the handoff timing: the sender is done immediately
// (its copy was charged to its CPU by the caller) and the receiver can
// observe the message after the notification latency.
//
//simlint:hotpath
func (l *Loopback) Transfer(dst, size int, ready sim.Time) (srcDone, dstArrive sim.Time) {
	l.transfers++
	return ready, ready + l.m.NotifyLatency
}

// Enqueue schedules a completion callback on the machine's event loop.
//
//simlint:hotpath
func (l *Loopback) Enqueue(at sim.Time, fn func()) {
	l.eng.At(at, fn)
}

// EnqueueArg schedules a closure-free completion callback on the machine's
// event loop (see sim.Engine.AtArg).
//
//simlint:hotpath
func (l *Loopback) EnqueueArg(at sim.Time, fn func(any), arg any) {
	l.eng.AtArg(at, fn, arg)
}

// Transfers reports how many handoffs this engine carried.
func (l *Loopback) Transfers() uint64 { return l.transfers }
