package ugni

import (
	"errors"
	"fmt"

	"charmgo/internal/gemini"
	"charmgo/internal/mem"
	"charmgo/internal/sim"
)

// GNI is one job's handle on the simulated Gemini NICs: it owns the SMSG
// connection state, routes events into per-PE completion queues, and tracks
// registration statistics.
type GNI struct {
	Net *gemini.Network

	smsgMax  int
	rxCQ     []*CQ // per-PE SMSG receive CQ (attached by the machine layer)
	mailbox  map[uint64]bool
	mbxBytes int64
	amoRegs  map[amoKey]int64 // lazily created on first AMO

	// conns holds per-ordered-(src,dst) SMSG credit windows, created on
	// first send like mailboxes. The receive side returns a credit when it
	// dequeues the message (hook invocation or GetEvent), and a sender that
	// saw RCNotDone gets one EvCreditReturn notification per starvation
	// episode when the window reopens.
	conns           map[uint64]*smsgConn
	creditsInFlight int64 //simlint:proto credit account

	// txArm counts armed one-shot transaction errors per initiator PE
	// (nil until the fault injector arms one).
	txArm map[int]int

	msgqConns map[uint64]bool
	msgqBytes int64

	// Fault/recovery counters (see the matching accessors).
	smsgNotDone    uint64
	creditConsumed uint64
	creditReturns  uint64
	txErrors       uint64
	cqOverruns     uint64

	// cqNodes pools in-flight CQ deliveries; descs pools post descriptors
	// for callers that follow the acquire/release contract (NewPostDesc /
	// ReleasePostDesc). See DESIGN.md §2.2. amoFlights and creditFlights
	// pool the records an AMO and a credit return carry through the
	// engine until they complete.
	cqNodes       mem.FreeList[cqNode]
	descs         mem.FreeList[PostDesc]
	amoFlights    mem.FreeList[amoFlight]
	creditFlights mem.FreeList[creditFlight]

	registeredBytes int64
	registrations   uint64
}

// New creates a GNI instance for the whole job. The SMSG maximum message
// size is derived from the job's PE count (paper Section III-C).
func New(net *gemini.Network) *GNI {
	return &GNI{
		Net:     net,
		smsgMax: gemini.SMSGMaxSize(net.NumPEs()),
		rxCQ:    make([]*CQ, net.NumPEs()),
		mailbox: make(map[uint64]bool),
		conns:   make(map[uint64]*smsgConn),
	}
}

// MaxSmsgSize reports the largest message SMSG will carry for this job.
func (g *GNI) MaxSmsgSize() int { return g.smsgMax }

// CqCreate mirrors GNI_CqCreate: it returns an empty completion queue with
// the machine's configured finite depth.
func (g *GNI) CqCreate(name string) *CQ {
	return &CQ{name: sim.Lit(name), eng: g.Net.Eng, g: g, depth: int32(g.Net.P.CQDepth)}
}

// CqCreateIdx is CqCreate for per-PE queues ("<pre><idx><post>"): the
// label is kept lazy so creating thousands of queues costs no formatting.
func (g *GNI) CqCreateIdx(pre string, idx int, post string) *CQ {
	cq := &CQ{}
	g.CqInitIdx(cq, pre, idx, post)
	return cq
}

// CqInitIdx initializes cq in place with CqCreateIdx semantics, for machine
// layers that slab-allocate their per-PE queue arrays (`make([]ugni.CQ, n)`)
// instead of paying one heap object per queue.
func (g *GNI) CqInitIdx(cq *CQ, pre string, idx int, post string) {
	*cq = CQ{name: sim.Indexed(pre, idx, post), eng: g.Net.Eng, g: g, idx: int32(idx), depth: int32(g.Net.P.CQDepth)}
}

// NewPostDesc acquires a zeroed post descriptor from the job-wide pool.
// The matching ReleasePostDesc call happens at the descriptor's completion
// event (the last CQ event the post generates); a descriptor that outlives
// its transaction must be heap-allocated instead.
//
//simlint:acquire
func (g *GNI) NewPostDesc() *PostDesc { return g.descs.Get() }

// ReleasePostDesc returns a pool-acquired descriptor. The caller must not
// touch d afterwards.
//
//simlint:release
func (g *GNI) ReleasePostDesc(d *PostDesc) { g.descs.Put(d) }

// AttachSmsgCQ designates cq as the receive CQ for incoming SMSG messages
// addressed to pe.
func (g *GNI) AttachSmsgCQ(pe int, cq *CQ) {
	g.rxCQ[pe] = cq
}

// MemHandle is an opaque registration handle, mirroring gni_mem_handle_t.
type MemHandle struct {
	Node int
	Size int
}

// MemRegister mirrors GNI_MemRegister: it registers size bytes on the PE's
// node and returns the handle plus the host CPU cost the caller must charge.
func (g *GNI) MemRegister(pe, size int) (MemHandle, sim.Time) {
	g.registeredBytes += int64(size)
	g.registrations++
	return MemHandle{Node: g.Net.NodeOf(pe), Size: size}, g.Net.P.Mem.Register(size)
}

// MemDeregister mirrors GNI_MemDeregister and returns the CPU cost.
func (g *GNI) MemDeregister(h MemHandle) sim.Time {
	g.registeredBytes -= int64(h.Size)
	return g.Net.P.Mem.Deregister()
}

// RegisteredBytes reports currently registered bytes across the job.
func (g *GNI) RegisteredBytes() int64 { return g.registeredBytes }

// Registrations reports the cumulative GNI_MemRegister call count.
func (g *GNI) Registrations() uint64 { return g.registrations }

// MailboxBytes reports memory consumed by SMSG mailboxes: per connected PE
// pair, each endpoint allocates a finite mailbox ring of SMSGCreditSlots
// slots of SMSGSlotBytes each — the same window the credit protocol
// enforces, so memory accounting and back-pressure accounting agree. It
// grows with distinct connected pairs — the scalability cost the paper
// attributes to SMSG.
func (g *GNI) MailboxBytes() int64 { return g.mbxBytes }

func (g *GNI) connect(a, b int) {
	key := uint64(a)<<32 | uint64(uint32(b))
	if a > b {
		key = uint64(b)<<32 | uint64(uint32(a))
	}
	if !g.mailbox[key] {
		//simlint:allow hotpathalloc -- mailbox establishment: first message between a PE pair only, modeling the real one-time SMSG mailbox allocation
		g.mailbox[key] = true
		// Both endpoints allocate and register a mailbox ring.
		g.mbxBytes += 2 * int64(g.Net.P.SMSGMailboxBytes())
	}
}

// smsgConn is one ordered (src→dst) connection's credit window: inflight
// counts slots occupied in dst's mailbox, limit is the current window size
// (narrowed by SqueezeCredits), starved marks a sender waiting for an
// EvCreditReturn notification.
type smsgConn struct {
	limit    int32
	inflight int32 //simlint:proto credit window
	starved  bool
}

// connKey is the ordered-pair map key (src and dst are job-local PE ranks,
// always < 2^32).
func connKey(src, dst int) uint64 { return uint64(uint32(src))<<32 | uint64(uint32(dst)) }

// conn returns (creating on first use) the credit window for src→dst.
func (g *GNI) conn(src, dst int) *smsgConn {
	c := g.conns[connKey(src, dst)]
	if c == nil {
		limit := int32(g.Net.P.SMSGCreditSlots)
		if limit <= 0 {
			limit = 1 << 30 // unbounded: credits disabled by configuration
		}
		//simlint:allow hotpathalloc -- connection establishment: first message on an ordered PE pair only
		c = &smsgConn{limit: limit}
		//simlint:allow hotpathalloc -- connection establishment: window stored once per ordered PE pair
		g.conns[connKey(src, dst)] = c
	}
	return c
}

// smsgConsumed returns one credit on the src→dst window: the receive side
// dequeued a message, freeing its mailbox slot. Intra-node the window
// reopens immediately; internode the credit rides a control packet back to
// the sender's NIC, so the decrement lands one ControlLatency later — as
// an event on the *sender's* node, so every mutation of an outbound credit
// window happens on the sender's side (the receive side only launches the
// packet). If the sender starved while the window was full, one
// EvCreditReturn notification is delivered to its SMSG receive CQ when the
// credit lands.
//
//simlint:proto credit return
func (g *GNI) smsgConsumed(src, dst int, now sim.Time) {
	srcNode := g.Net.NodeOf(src)
	dstNode := g.Net.NodeOf(dst)
	if srcNode == dstNode {
		c := g.conns[connKey(src, dst)]
		if c == nil {
			return
		}
		c.inflight--
		g.creditsInFlight--
		g.creditReturns++
		if c.starved && c.inflight < c.limit {
			c.starved = false
			g.notifyCreditReturn(src, dst, now)
		}
		return
	}
	fl := g.creditFlights.Get()
	fl.g, fl.src, fl.dst = g, int32(src), int32(dst)
	fl.at = now + g.Net.ControlLatency(dstNode, srcNode)
	g.Net.Eng.AtArg(fl.at, creditBack, fl)
}

// creditFlight carries one internode credit return through the engine:
// the control packet from the consuming receiver back to the sender's NIC.
//
//simlint:proto flight record
type creditFlight struct {
	g        *GNI
	at       sim.Time
	src, dst int32
}

// creditBack lands an internode credit return on the sender's node: the
// window decrement and, if the sender starved, the EvCreditReturn wake-up
// (the control packet already flew, so only the CQ hop remains — the same
// total latency the starved path always paid).
//
//simlint:hotpath
//simlint:proto credit return
//simlint:proto flight complete
func creditBack(arg any) {
	fl := arg.(*creditFlight)
	g, src, dst, at := fl.g, int(fl.src), int(fl.dst), fl.at
	*fl = creditFlight{}
	g.creditFlights.Put(fl)
	c := g.conns[connKey(src, dst)]
	if c == nil {
		return
	}
	c.inflight--
	g.creditsInFlight--
	g.creditReturns++
	if c.starved && c.inflight < c.limit {
		c.starved = false
		if cq := g.rxCQ[src]; cq != nil {
			cq.push(at+g.Net.P.CQLatency, Event{
				Type: EvCreditReturn, Src: src, Dst: dst, nocredit: true,
			})
		}
	}
}

// notifyCreditReturn schedules the EvCreditReturn event on the sender's
// receive CQ, one control-packet flight away. Bare-API users without an
// attached CQ poll the RC instead.
func (g *GNI) notifyCreditReturn(src, dst int, now sim.Time) {
	tx := g.rxCQ[src]
	if tx == nil {
		return
	}
	lat := g.Net.ControlLatency(g.Net.NodeOf(dst), g.Net.NodeOf(src))
	tx.push(now+lat+g.Net.P.CQLatency, Event{
		Type: EvCreditReturn, Src: src, Dst: dst, nocredit: true,
	})
}

// noteFault reports a fault-model observation to the installed kernel
// probe, if any.
func (g *GNI) noteFault(k sim.FaultKind, now sim.Time) {
	if p := g.Net.Eng.Probe(); p != nil {
		p.FaultNoted(k, now)
	}
}

// SqueezeCredits narrows the src→dst credit window to limit during
// [from, until), then restores the configured window. Both edges are
// virtual-time engine events, so a squeeze is deterministic like any other
// scheduled work. Restoring wakes a starved sender.
func (g *GNI) SqueezeCredits(src, dst, limit int, from, until sim.Time) {
	if limit < 0 {
		limit = 0
	}
	lim := int32(limit)
	g.Net.Eng.At(from, func() {
		g.conn(src, dst).limit = lim
		g.noteFault(sim.FaultCreditSqueeze, from)
	})
	g.Net.Eng.At(until, func() {
		c := g.conn(src, dst)
		c.limit = int32(g.Net.P.SMSGCreditSlots)
		if c.starved && c.inflight < c.limit {
			c.starved = false
			g.notifyCreditReturn(src, dst, until)
		}
	})
}

// ArmTxError arms n one-shot transaction errors against PE's FMA/BTE posts,
// effective at virtual time from: each of the next n posts initiated by pe
// completes with EvError instead of data movement.
func (g *GNI) ArmTxError(pe, n int, from sim.Time) {
	g.Net.Eng.At(from, func() {
		if g.txArm == nil {
			g.txArm = make(map[int]int)
		}
		g.txArm[pe] += n
	})
}

// SuspendSmsgCQ holds back pe's SMSG receive CQ during [from, until): a CQ
// back-pressure window. Deliveries defer (holding their mailbox credits, so
// the stall propagates to senders as RCNotDone), and past the queue's depth
// the overrun flag raises, to be cleared through OnError/ErrorRecover at
// resume.
func (g *GNI) SuspendSmsgCQ(pe int, from, until sim.Time) {
	g.Net.Eng.At(from, func() {
		if cq := g.rxCQ[pe]; cq != nil {
			cq.suspended = true
			g.noteFault(sim.FaultCqBackPressure, from)
		}
	})
	g.Net.Eng.At(until, func() {
		if cq := g.rxCQ[pe]; cq != nil {
			cq.resume(until)
		}
	})
}

// SmsgNotDone reports how many sends were refused with RCNotDone.
func (g *GNI) SmsgNotDone() uint64 { return g.smsgNotDone }

// CreditsConsumed reports how many mailbox credits were ever consumed by
// accepted SMSG sends. With CreditReturns and CreditsInFlight it states
// the conservation law the creditbalance analyzer proves statically:
// consumed == returned + in-flight at every quiescent point.
func (g *GNI) CreditsConsumed() uint64 { return g.creditConsumed }

// CreditReturns reports how many mailbox credits were returned by
// receive-side dequeues.
func (g *GNI) CreditReturns() uint64 { return g.creditReturns }

// TxErrors reports how many posts completed with EvError.
func (g *GNI) TxErrors() uint64 { return g.txErrors }

// CqOverruns reports overrun episodes across all this job's CQs.
func (g *GNI) CqOverruns() uint64 { return g.cqOverruns }

// CreditsInFlight reports mailbox slots currently occupied across every
// connection; a drained machine must bring this back to zero.
func (g *GNI) CreditsInFlight() int64 { return g.creditsInFlight }

// ErrSmsgTooBig is returned when a message exceeds the SMSG size cap.
var ErrSmsgTooBig = errors.New("ugni: message exceeds SMSG maximum size")

// SmsgSendWTag mirrors GNI_SmsgSendWTag: it sends a short tagged message
// from src to dst, ready at the caller's PE-local time `at`. The message is
// delivered into dst's attached SMSG receive CQ. It returns the host CPU
// cost the caller must charge and the uGNI return code. RCNotDone (with a
// nil error) means dst's mailbox credit window is full and the send did NOT
// happen: the caller queues the message and retries when the EvCreditReturn
// event says the window reopened. If txCQ is non-nil a TX_DONE event is
// delivered there when the send leaves the NIC.
//
//simlint:proto credit consume
func (g *GNI) SmsgSendWTag(src, dst int, tag uint8, size int, payload any, at sim.Time, txCQ *CQ) (sim.Time, RC, error) {
	if size > g.smsgMax {
		return 0, RCErrorResource, fmt.Errorf("%w: %d > %d", ErrSmsgTooBig, size, g.smsgMax)
	}
	g.connect(src, dst)
	rx := g.rxCQ[dst]
	if rx == nil {
		return 0, RCErrorResource, fmt.Errorf("ugni: PE %d has no attached SMSG receive CQ", dst)
	}
	c := g.conn(src, dst)
	if c.inflight >= c.limit {
		c.starved = true
		g.smsgNotDone++
		g.noteFault(sim.FaultSmsgNotDone, at)
		return 0, RCNotDone, nil
	}
	c.inflight++
	g.creditsInFlight++
	g.creditConsumed++
	// Book through the node's SMSG NIC engine (FMA hardware, mailbox
	// protocol overhead). The remote delivery is pushed before TX_DONE:
	// events at equal times fire in push order.
	srcDone, arrive := g.Net.Transfer(g.Net.NodeOf(src), g.Net.NodeOf(dst), size, gemini.UnitSMSG, at)
	rx.push(arrive+g.Net.P.CQLatency, Event{Type: EvSmsg, Src: src, Dst: dst, Tag: tag, Size: size, Payload: payload})
	if txCQ != nil {
		txCQ.push(srcDone+g.Net.P.CQLatency, Event{
			Type: EvTxDone, Src: src, Dst: dst, Tag: tag, Size: size,
		})
	}
	return g.Net.P.HostSendCPU, RCSuccess, nil
}

// PostKind discriminates PUT and GET transactions.
type PostKind int

const (
	// PostPut moves data from the initiator to the remote PE.
	PostPut PostKind = iota
	// PostGet pulls data from the remote PE to the initiator.
	PostGet
)

// String names the post kind.
func (k PostKind) String() string {
	if k == PostPut {
		return "PUT"
	}
	return "GET"
}

// PostDesc is the transaction descriptor handed to PostFma/PostRdma,
// mirroring gni_post_descriptor_t. LocalCQ receives EvRdmaLocal when the
// transaction completes on the initiator side; RemoteCQ (optional) receives
// EvRdmaRemote when it completes on the remote side.
type PostDesc struct {
	Kind      PostKind
	Initiator int // PE posting the descriptor
	Remote    int // the other PE
	Size      int
	Payload   any
	Tag       uint8
	UserData  any
	LocalCQ   *CQ
	RemoteCQ  *CQ

	// Attempts counts transaction-error failures of this descriptor so the
	// recovering layer can bound its retries and scale its backoff.
	Attempts uint8
}

// PostFma mirrors GNI_PostFma: execute the transaction on the FMA unit.
// It returns the host CPU cost of posting.
//
//simlint:proto retry post
func (g *GNI) PostFma(d *PostDesc, at sim.Time) sim.Time {
	return g.post(d, gemini.UnitFMA, at)
}

// PostRdma mirrors GNI_PostRdma: queue the transaction on the BTE.
//
//simlint:proto retry post
func (g *GNI) PostRdma(d *PostDesc, at sim.Time) sim.Time {
	return g.post(d, gemini.UnitBTE, at)
}

func (g *GNI) post(d *PostDesc, unit gemini.Unit, at sim.Time) sim.Time {
	if n := g.txArm[d.Initiator]; n > 0 {
		// Armed one-shot transaction error: the post is accepted (the host
		// still pays the posting cost) but fails in flight — no data moves,
		// no bandwidth is booked, and the initiator learns via an EvError
		// completion carrying the descriptor (GNI_RC_TRANSACTION_ERROR).
		//simlint:allow hotpathalloc -- fault path: reached only while transaction errors are armed; clean runs take the n==0 branch
		g.txArm[d.Initiator] = n - 1
		d.Attempts++
		g.txErrors++
		g.noteFault(sim.FaultTxError, at)
		cq := d.LocalCQ
		if cq == nil {
			cq = d.RemoteCQ
		}
		if cq == nil {
			panic("ugni: post without any CQ hit an armed transaction error")
		}
		cq.push(at+g.Net.P.TxErrorLatency, Event{
			Type: EvError, Src: d.Initiator, Dst: d.Remote, Tag: d.Tag,
			Size: d.Size, Payload: d.Payload, Desc: d, nocredit: true,
		})
		return g.Net.P.HostPostCPU
	}
	iNode := g.Net.NodeOf(d.Initiator)
	rNode := g.Net.NodeOf(d.Remote)
	var localDone, remoteDone sim.Time
	switch d.Kind {
	case PostPut:
		srcDone, arrive := g.Net.Transfer(iNode, rNode, d.Size, unit, at)
		localDone, remoteDone = srcDone, arrive
	case PostGet:
		_, arrive := g.Net.Get(iNode, rNode, d.Size, unit, at)
		localDone, remoteDone = arrive, arrive
	default:
		panic("ugni: unknown post kind")
	}
	ev := Event{Src: d.Initiator, Dst: d.Remote, Tag: d.Tag, Size: d.Size, Payload: d.Payload, Desc: d}
	if d.LocalCQ != nil {
		lev := ev
		lev.Type = EvRdmaLocal
		d.LocalCQ.push(localDone+g.Net.P.CQLatency, lev)
	}
	if d.RemoteCQ != nil {
		rev := ev
		rev.Type = EvRdmaRemote
		d.RemoteCQ.push(remoteDone+g.Net.P.CQLatency, rev)
	}
	return g.Net.P.HostPostCPU
}

// PollCost reports the CPU cost of one successful CQ poll; progress engines
// charge it per handled event.
func (g *GNI) PollCost() sim.Time { return g.Net.P.HostCQPollCPU }
