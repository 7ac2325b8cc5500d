// Package ugni exposes the user-level Generic Network Interface the paper's
// machine layer is written against: completion queues, memory registration,
// SMSG mailbox messaging, and FMA/RDMA post operations — all backed by the
// simulated Gemini NIC (internal/gemini).
//
// Function shapes mirror the uGNI API the paper lists in Section II-B
// (GNI_CqCreate, GNI_MemRegister, GNI_SmsgSendWTag, GNI_PostFma,
// GNI_PostRdma), adapted to the simulator's virtual-time conventions: calls
// take the caller's PE-local time and return the host CPU cost the caller
// must charge.
package ugni

import "charmgo/internal/sim"

// EventType discriminates completion-queue events.
type EventType int

const (
	// EvSmsg: a short message landed in this PE's mailbox.
	//simlint:proto event kind smsg
	EvSmsg EventType = iota
	// EvTxDone: a locally issued SMSG send left the NIC.
	//simlint:proto event kind polled
	EvTxDone
	// EvRdmaLocal: a posted FMA/RDMA transaction completed locally
	// (PUT: source buffer free; GET: data arrived).
	//simlint:proto event kind rdma
	EvRdmaLocal
	// EvRdmaRemote: a transaction completed on the remote side.
	//simlint:proto event kind rdma mpirdma
	EvRdmaRemote
	// EvError: a posted FMA/BTE transaction failed (GNI_RC_TRANSACTION_ERROR).
	// Desc carries the failed descriptor so the layer can re-post it.
	//simlint:proto event kind rdma mpirdma
	EvError
	// EvCreditReturn: the SMSG credit window toward Dst reopened after this
	// PE (Src) saw RC_NOT_DONE. Machine layers drain their pending-send
	// queue for the (Src, Dst) connection on this event.
	//simlint:proto event kind smsg
	EvCreditReturn
)

// String names the event type.
func (t EventType) String() string {
	switch t {
	case EvSmsg:
		return "SMSG"
	case EvTxDone:
		return "TX_DONE"
	case EvRdmaLocal:
		return "RDMA_LOCAL"
	case EvRdmaRemote:
		return "RDMA_REMOTE"
	case EvError:
		return "ERROR"
	case EvCreditReturn:
		return "CREDIT_RETURN"
	}
	return "event?"
}

// Event is one completion-queue entry. As the paper notes, a Gemini CQ
// event does not carry the transaction's memory address; protocols must
// carry identifying context themselves (the Desc pointer here plays the
// role of the post descriptor the real NIC hands back).
type Event struct {
	Type    EventType
	At      sim.Time // when the event became visible to the host
	Src     int      // sending PE
	Dst     int      // receiving PE
	Tag     uint8
	Size    int
	Payload any
	Desc    *PostDesc // non-nil for RDMA events
	AmoOld  int64     // EvAmoDone: the register's pre-operation value

	// nocredit marks deliveries that must not consume an SMSG mailbox
	// credit even though they look like EvSmsg (MSGQ shares the delivery
	// path but its per-node queues are credit-free) or flow through an
	// SMSG receive CQ (credit-return notifications).
	nocredit bool
}

// CQ is a completion queue. The simulator delivers events by scheduling
// OnEvent at the event's visibility time; GetEvent drains the queue in
// order, mirroring GNI_CqGetEvent.
type CQ struct {
	name sim.Name
	eng  *sim.Engine
	g    *GNI // owner; carries the shared delivery-node pool
	idx  int32
	q    []Event

	// OnEvent, if set, consumes every event: it fires (as an engine event,
	// at the event's visibility time) and the event is NOT queued for
	// GetEvent. This replaces the spin-polling loop a real progress engine
	// runs; per-event poll cost is charged by the handler (DESIGN.md §5).
	// A CQ therefore operates in exactly one of two modes: hooked
	// (OnEvent or OnEventIdx set) or polled (GetEvent drains the queue).
	OnEvent func(ev Event)

	// OnEventIdx is OnEvent for layers that keep one per-PE queue array:
	// the queue's creation index (CqCreateIdx/CqInitIdx) is passed along,
	// so a layer can install ONE shared hook function on every queue
	// instead of allocating a per-queue closure that captures the PE.
	// OnEventIdx wins when both are set.
	OnEventIdx func(idx int, ev Event)

	// OnError, if set, fires (with the queue's creation index) when an
	// overrun queue resumes: the layer's chance to count the overrun and
	// call ErrorRecover, mirroring the GNI_CqErrorRecover protocol. When
	// unset, resume recovers automatically.
	OnError func(idx int)

	// Finite capacity (paper Section II-B: CQs are fixed-size rings and
	// can overrun). depth bounds the events a *suspended* queue may defer;
	// a queue the host keeps draining never overruns, matching hardware
	// where overrun means "the host fell behind". <=0 means unbounded.
	depth     int32
	suspended bool
	overrun   bool
	overruns  uint64
	deferred  []Event

	delivered uint64
}

// Suspended reports whether the queue is inside a back-pressure window.
func (cq *CQ) Suspended() bool { return cq.suspended }

// Overrun reports whether the queue exceeded its depth while suspended and
// has not yet been recovered.
func (cq *CQ) Overrun() bool { return cq.overrun }

// Overruns reports how many overrun episodes the queue has entered.
func (cq *CQ) Overruns() uint64 { return cq.overruns }

// ErrorRecover mirrors GNI_CqErrorRecover: it clears the overrun condition
// so the queue delivers normally again. The simulator retains the deferred
// entries rather than dropping them — Gemini's SMSG protocol retransmits
// until the mailbox drains, so overrun costs time, not messages.
func (cq *CQ) ErrorRecover() { cq.overrun = false }

// Name reports the queue's diagnostic name.
func (cq *CQ) Name() string { return cq.name.String() }

// Len reports the number of queued, undrained events.
func (cq *CQ) Len() int { return len(cq.q) }

// Delivered reports how many events were ever pushed.
func (cq *CQ) Delivered() uint64 { return cq.delivered }

// GetEvent pops the oldest event, mirroring GNI_CqGetEvent; ok is false
// when the queue is empty. For polled queues this is the receive-side
// dequeue, so it is where an SMSG delivery returns its mailbox credit.
func (cq *CQ) GetEvent() (ev Event, ok bool) {
	if len(cq.q) == 0 {
		return Event{}, false
	}
	ev = cq.q[0]
	copy(cq.q, cq.q[1:])
	cq.q = cq.q[:len(cq.q)-1]
	if ev.Type == EvSmsg && !ev.nocredit && cq.g != nil {
		cq.g.smsgConsumed(ev.Src, ev.Dst, cq.eng.Now())
	}
	return ev, true
}

// cqNode carries one in-flight event delivery: the target queue plus the
// full Event, pooled on the owning GNI so that pushing an event allocates
// nothing in steady state (the old closure-per-push was one of the largest
// allocation sources in the whole simulator).
type cqNode struct {
	cq *CQ
	ev Event
}

// deliverCQ is the engine callback for every CQ delivery (closure-free
// dispatch: one package-level function, pooled argument).
func deliverCQ(arg any) {
	n := arg.(*cqNode)
	cq, ev := n.cq, n.ev
	cq.g.cqNodes.Put(n)
	cq.dispatch(ev)
}

// dispatch consumes one arriving event: defer it while the queue is
// suspended, otherwise hand it to the hook (hooked mode) or the poll queue.
// Hook invocation is the receive-side dequeue, so it is where an SMSG
// delivery returns its mailbox credit; while suspended, deliveries hold
// their credits, which is how CQ back-pressure propagates to senders.
func (cq *CQ) dispatch(ev Event) {
	if cq.suspended {
		if cq.depth > 0 && len(cq.deferred) >= int(cq.depth) && !cq.overrun {
			cq.overrun = true
			cq.overruns++
			cq.g.cqOverruns++
			cq.g.noteFault(sim.FaultCqOverrun, ev.At)
		}
		cq.deferred = append(cq.deferred, ev)
		return
	}
	cq.delivered++
	if ev.Type == EvSmsg && !ev.nocredit {
		if cq.OnEventIdx != nil || cq.OnEvent != nil {
			cq.g.smsgConsumed(ev.Src, ev.Dst, cq.eng.Now())
		}
	}
	if cq.OnEventIdx != nil {
		cq.OnEventIdx(int(cq.idx), ev)
		return
	}
	if cq.OnEvent != nil {
		cq.OnEvent(ev)
		return
	}
	cq.q = append(cq.q, ev)
}

// resume ends a suspension window: the overrun hook (if any) runs first,
// then deferred events flush in arrival order with their visibility times
// clamped to the resume instant. A nested suspension started by a handler
// stops the flush; the remainder waits for the next resume.
func (cq *CQ) resume(now sim.Time) {
	if !cq.suspended {
		return
	}
	cq.suspended = false
	if cq.overrun {
		if cq.OnError != nil {
			cq.OnError(int(cq.idx))
		} else {
			cq.ErrorRecover()
		}
	}
	for !cq.suspended && len(cq.deferred) > 0 {
		ev := cq.deferred[0]
		copy(cq.deferred, cq.deferred[1:])
		cq.deferred[len(cq.deferred)-1] = Event{}
		cq.deferred = cq.deferred[:len(cq.deferred)-1]
		if ev.At < now {
			ev.At = now
		}
		cq.dispatch(ev)
	}
}

// push schedules the event to appear at time at.
func (cq *CQ) push(at sim.Time, ev Event) {
	ev.At = at
	n := cq.g.cqNodes.Get()
	n.cq = cq
	n.ev = ev
	cq.eng.AtArg(at, deliverCQ, n)
}
