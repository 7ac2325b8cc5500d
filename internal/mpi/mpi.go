// Package mpi is the baseline the paper compares against: an MPI-like
// message-passing library implemented on top of the simulated uGNI/Gemini
// stack, with the structural properties of Cray MPI that the paper's
// measurements expose:
//
//   - an eager protocol below a threshold (copies through internal
//     registered buffers on both sides);
//   - an RTS + GET rendezvous protocol above it, with a uDREG-style
//     registration cache (so reusing a send/recv buffer skips
//     registration — the Figure 9(a) same-buffer/different-buffer split);
//   - blocking MPI_Recv semantics: once a rendezvous receive starts, the
//     calling rank's CPU is occupied until the data has fully arrived
//     (the overlap killer behind Figure 10);
//   - a shared-memory intra-node path: double-copy for small messages and
//     an XPMEM-style single-copy for large ones (Figure 8(c)'s MPI curve);
//   - per-call software overhead for the MPI stack itself.
package mpi

import (
	"fmt"

	"charmgo/internal/gemini"
	"charmgo/internal/mem"
	"charmgo/internal/shm"
	"charmgo/internal/sim"
	"charmgo/internal/ugni"
)

// Host provides the per-rank CPU resources and the engine.
type Host interface {
	Eng() *sim.Engine
	CPU(rank int) *sim.PEResource
}

// Config tunes the library.
type Config struct {
	// EagerThreshold: messages at or below travel eagerly; above use
	// rendezvous. Cray MPI's default on Gemini was 8 KiB.
	EagerThreshold int
	// SoftwareOverhead is the per-MPI-call stack cost.
	SoftwareOverhead sim.Time
	// ProbeCost is one MPI_Iprobe invocation.
	ProbeCost sim.Time
	// CtrlMsgSize is the RTS wire size.
	CtrlMsgSize int
	// XpmemThreshold: intra-node messages above this use the single-copy
	// XPMEM path; at or below, the double-copy shared-memory path.
	XpmemThreshold int
	// XpmemAttach is the per-message cost of the XPMEM mapping.
	XpmemAttach sim.Time
	// Shm is the intra-node cost model.
	Shm shm.Model
	// RetryBase is the virtual-time backoff unit after a transaction
	// error on an eager-large PUT: attempt n re-posts after
	// RetryBase << (n-1). Zero selects a 2 µs default.
	RetryBase sim.Time
}

// DefaultConfig returns the calibrated Cray-MPI-like constants.
func DefaultConfig() Config {
	return Config{
		EagerThreshold:   8 << 10,
		SoftwareOverhead: 420 * sim.Nanosecond,
		ProbeCost:        190 * sim.Nanosecond,
		CtrlMsgSize:      64,
		XpmemThreshold:   16 << 10,
		XpmemAttach:      800 * sim.Nanosecond,
		Shm:              shm.DefaultModel(),
	}
}

// BufID identifies an application buffer for the registration cache. The
// same ID passed again models reusing the same buffer (uDREG hit); a fresh
// ID models a new buffer (miss). Zero is never cached.
type BufID int64

// Envelope is an arrived-but-unreceived message: what Iprobe reports.
// Envelopes are pool-acquired by the send paths and released back to the
// pool at the end of Recv — callers must extract Payload and any other
// fields they need before calling Recv.
type Envelope struct {
	Src, Dst   int
	Size       int
	Payload    any
	Rendezvous bool
	ArrivedAt  sim.Time
	sendBuf    BufID
	intra      bool
	c          *Comm // owning communicator (for closure-free intra delivery)
}

// Comm is one communicator spanning all PEs of the network, rank == PE.
type Comm struct {
	gni  *ugni.GNI
	host Host
	cfg  Config

	rxq       [][]*Envelope // per-rank unexpected-message queue
	onArrival []func(env *Envelope)
	dreg      []map[BufID]bool // per-rank registration cache (lazy per rank)
	cqSlab    []ugni.CQ        // slab: all per-rank CQs in two allocations
	rdmaCQs   []*ugni.CQ       // per-rank eager-large landing CQ (into cqSlab)
	loop      *shm.Loopback    // intra-node engine (sim.NICEngine)

	// envs pools Envelope records: acquired by every Isend path, released
	// at the end of Recv (see Envelope's doc comment).
	envs mem.FreeList[Envelope]

	// pendq holds per-ordered-(src,dst) queues of envelopes blocked on
	// RC_NOT_DONE, drained in FIFO order on EvCreditReturn. pendlist
	// mirrors the map in creation order for deterministic Close.
	pendq    map[uint64]*pendQueue
	pendlist []*pendQueue
	pnodes   mem.FreeList[pendNode]
	pqueues  mem.FreeList[pendQueue]

	// ctr holds the per-call counters as plain fields (a string-keyed map
	// assign per message is measurable on the hot path); Stats() converts.
	ctr struct {
		eagerSent, rndvSent, intraSent, recvs int64
		udregHits, udregMisses                int64
		smsgNotDone, retransmits              int64
		deadReaped                            int64
	}
}

// pendNode is one SMSG send blocked on RC_NOT_DONE; pendQueue is a
// per-connection FIFO of them.
type pendNode struct {
	next *pendNode
	tag  uint8
	size int // wire size (CtrlMsgSize for RTS, payload size for eager)
	env  *Envelope
}

type pendQueue struct {
	src, dst   int
	head, tail *pendNode
	n          int
}

func pendKey(src, dst int) uint64 { return uint64(uint32(src))<<32 | uint64(uint32(dst)) }

// SMSG tags used internally.
const (
	tagEager uint8 = iota
	tagRTS
)

// New builds the communicator and attaches its uGNI receive queues. The
// GNI instance must not be shared with another consumer of SMSG receive
// queues.
func New(g *ugni.GNI, host Host, cfg Config) *Comm {
	n := g.Net.NumPEs()
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 2000 * sim.Nanosecond
	}
	c := &Comm{
		gni:       g,
		host:      host,
		cfg:       cfg,
		rxq:       rxqSlabs.Get(n),
		onArrival: arrivalSlabs.Get(n),
		dreg:      dregSlabs.Get(n),
		pendq:     make(map[uint64]*pendQueue),
	}
	c.loop = shm.NewLoopback(host.Eng(), cfg.Shm, sim.Lit("mpi.shm"))
	// Slab-allocate all CQs and share two method values across every rank:
	// OnEventIdx passes the CQ's own index, so no per-rank closures.
	c.cqSlab = ugni.GetCQSlab(2 * n)
	c.rdmaCQs = ugni.GetCQPtrSlab(n)
	onSmsg, onRdma := c.onSmsg, c.onRdma
	for rank := 0; rank < n; rank++ {
		rx := &c.cqSlab[2*rank]
		g.CqInitIdx(rx, "mpi.rank", rank, ".rx")
		rx.OnEventIdx = onSmsg
		g.AttachSmsgCQ(rank, rx)

		rc := &c.cqSlab[2*rank+1]
		g.CqInitIdx(rc, "mpi.rank", rank, ".rdma")
		rc.OnEventIdx = onRdma
		c.rdmaCQs[rank] = rc
	}
	return c
}

// Per-rank construction slab caches, recycled across communicators (see
// mem.SlabCache).
var (
	rxqSlabs     mem.SlabCache[[]*Envelope]
	arrivalSlabs mem.SlabCache[func(*Envelope)]
	dregSlabs    mem.SlabCache[map[BufID]bool]
)

// Close releases the communicator's construction slabs for reuse by a
// later New. The communicator, its GNI, and its network must not be used
// afterwards.
func (c *Comm) Close() {
	ugni.PutCQSlab(c.cqSlab)
	ugni.PutCQPtrSlab(c.rdmaCQs)
	rxqSlabs.Put(c.rxq)
	arrivalSlabs.Put(c.onArrival)
	dregSlabs.Put(c.dreg)
	// Release pending-send queue records (and any stranded nodes) in
	// creation order.
	for _, q := range c.pendlist {
		for q.head != nil {
			node := q.head
			q.head = node.next
			if node.env != nil {
				c.envs.Put(node.env)
			}
			node.next, node.env = nil, nil
			c.pnodes.Put(node)
		}
		q.tail, q.n = nil, 0
		c.pqueues.Put(q)
	}
	c.pendlist, c.pendq = nil, nil
	c.cqSlab, c.rdmaCQs, c.rxq, c.onArrival, c.dreg = nil, nil, nil, nil, nil
}

// Stats reports library counters. Counters that never fired are omitted,
// matching the sparse map the old bump-per-call implementation built.
func (c *Comm) Stats() map[string]int64 {
	out := make(map[string]int64, 6)
	set := func(k string, v int64) {
		if v != 0 {
			out[k] = v
		}
	}
	set("eager_sent", c.ctr.eagerSent)
	set("rndv_sent", c.ctr.rndvSent)
	set("intra_sent", c.ctr.intraSent)
	set("recvs", c.ctr.recvs)
	set("udreg_hits", c.ctr.udregHits)
	set("udreg_misses", c.ctr.udregMisses)
	set("smsg_not_done", c.ctr.smsgNotDone)
	set("retransmits", c.ctr.retransmits)
	set("dead_reaped", c.ctr.deadReaped)
	return out
}

// OnArrival registers the event hook invoked when a message for rank
// becomes probe-visible. It stands in for the polling loop around
// MPI_Iprobe (per-probe cost is charged by the caller via ProbeCost).
func (c *Comm) OnArrival(rank int, fn func(env *Envelope)) { c.onArrival[rank] = fn }

// ProbeCost reports the configured MPI_Iprobe cost.
func (c *Comm) ProbeCost() sim.Time { return c.cfg.ProbeCost }

// Overhead reports the configured per-call software overhead.
func (c *Comm) Overhead() sim.Time { return c.cfg.SoftwareOverhead }

// registerCached charges registration for buf on rank unless cached.
func (c *Comm) registerCached(rank int, buf BufID, size int) sim.Time {
	if buf != 0 && c.dreg[rank][buf] {
		c.ctr.udregHits++
		return 0
	}
	if buf != 0 {
		if c.dreg[rank] == nil {
			//simlint:allow hotpathalloc -- uDREG cache fill: first registration for a rank only, already charged a full MemRegister
			c.dreg[rank] = make(map[BufID]bool)
		}
		//simlint:allow hotpathalloc -- uDREG cache fill: per-buffer miss path only, already charged a full MemRegister
		c.dreg[rank][buf] = true
	}
	c.ctr.udregMisses++
	_, cost := c.gni.MemRegister(rank, size)
	return cost
}

// Isend sends size bytes from src to dst. It returns the sender-side CPU
// cost; the caller charges it (Isend itself never blocks).
func (c *Comm) Isend(src, dst, size int, payload any, buf BufID, at sim.Time) sim.Time {
	if c.gni.Net.SameNode(src, dst) {
		return c.isendIntra(src, dst, size, payload, at)
	}
	if size <= c.cfg.EagerThreshold {
		return c.isendEager(src, dst, size, payload, at)
	}
	return c.isendRndv(src, dst, size, payload, buf, at)
}

// newEnv acquires a pooled envelope (released at the end of Recv).
//
//simlint:acquire
func (c *Comm) newEnv() *Envelope {
	env := c.envs.Get()
	env.c = c
	return env
}

// isendEager copies into an internal registered buffer and ships it.
func (c *Comm) isendEager(src, dst, size int, payload any, at sim.Time) sim.Time {
	c.ctr.eagerSent++
	cpu := c.cfg.SoftwareOverhead + c.gni.Net.P.Mem.Memcpy(size)
	env := c.newEnv()
	env.Src, env.Dst, env.Size, env.Payload = src, dst, size, payload
	sendAt := at + cpu
	if size <= c.gni.MaxSmsgSize() {
		return cpu + c.smsgOrQueue(src, dst, tagEager, size, env, sendAt)
	}
	// Eager-large: FMA PUT into the pre-registered eager landing zone. The
	// descriptor has only a remote CQ, so it releases in onRdma.
	desc := c.gni.NewPostDesc()
	desc.Kind = ugni.PostPut
	desc.Initiator = src
	desc.Remote = dst
	desc.Size = size
	desc.Payload = env
	desc.RemoteCQ = c.rdmaCQs[dst]
	return cpu + c.gni.PostFma(desc, sendAt)
}

// isendRndv registers the send buffer (uDREG) and sends an RTS.
func (c *Comm) isendRndv(src, dst, size int, payload any, buf BufID, at sim.Time) sim.Time {
	c.ctr.rndvSent++
	cpu := c.cfg.SoftwareOverhead + c.registerCached(src, buf, size)
	env := c.newEnv()
	env.Src, env.Dst, env.Size, env.Payload = src, dst, size, payload
	env.Rendezvous, env.sendBuf = true, buf
	return cpu + c.smsgOrQueue(src, dst, tagRTS, c.cfg.CtrlMsgSize, env, at+cpu)
}

// smsgOrQueue ships one SMSG (eager payload or RTS), queueing the envelope
// behind the connection's blocked sends on RC_NOT_DONE — MPI on Gemini
// keeps the same pending-send queue the paper's machine layer does. It
// returns the wire-issue CPU cost (zero when queued; the NIC never saw the
// message).
func (c *Comm) smsgOrQueue(src, dst int, tag uint8, wireSize int, env *Envelope, at sim.Time) sim.Time {
	if q := c.pendq[pendKey(src, dst)]; q != nil && q.n > 0 {
		// Keep FIFO: earlier sends on this connection are still blocked.
		c.enqueuePend(q, tag, wireSize, env)
		return 0
	}
	wire, rc, err := c.gni.SmsgSendWTag(src, dst, tag, wireSize, env, at, nil)
	if err != nil {
		panic(fmt.Sprintf("mpi: smsg tag %d: %v", tag, err))
	}
	if rc == ugni.RCNotDone {
		c.ctr.smsgNotDone++
		c.enqueuePend(c.queueFor(src, dst), tag, wireSize, env)
		return 0
	}
	return wire
}

// queueFor returns (creating on first starvation) the pending queue for
// the src→dst connection.
func (c *Comm) queueFor(src, dst int) *pendQueue {
	key := pendKey(src, dst)
	q := c.pendq[key]
	if q == nil {
		q = c.pqueues.Get()
		q.src, q.dst = src, dst
		//simlint:allow hotpathalloc -- fault path: pending queue registered on a connection's first RC_NOT_DONE only
		c.pendq[key] = q
		c.pendlist = append(c.pendlist, q)
	}
	return q
}

// enqueuePend appends one blocked send; the envelope's ownership moves to
// the queue until the drain re-issues it.
func (c *Comm) enqueuePend(q *pendQueue, tag uint8, wireSize int, env *Envelope) {
	node := c.pnodes.Get()
	node.next, node.tag, node.size, node.env = nil, tag, wireSize, env
	if q.tail == nil {
		q.head = node
	} else {
		q.tail.next = node
	}
	q.tail = node
	q.n++
}

// drainPending re-issues blocked sends in FIFO order when the credit
// window reopens, stopping if it fills again (the next EvCreditReturn
// resumes).
//
//simlint:proto credit drain
func (c *Comm) drainPending(ev ugni.Event) {
	q := c.pendq[pendKey(ev.Src, ev.Dst)]
	if q == nil || q.n == 0 {
		return
	}
	for q.n > 0 {
		node := q.head
		_, rc, err := c.gni.SmsgSendWTag(q.src, q.dst, node.tag, node.size, node.env, ev.At, nil)
		if err != nil {
			panic(fmt.Sprintf("mpi: pending drain: %v", err))
		}
		if rc == ugni.RCNotDone {
			return
		}
		q.head = node.next
		if q.head == nil {
			q.tail = nil
		}
		q.n--
		node.next, node.env = nil, nil
		c.pnodes.Put(node)
	}
}

// isendIntra ships the message over the node-local shared-memory path.
func (c *Comm) isendIntra(src, dst, size int, payload any, at sim.Time) sim.Time {
	c.ctr.intraSent++
	cpu := c.cfg.SoftwareOverhead
	env := c.newEnv()
	env.Src, env.Dst, env.Size, env.Payload = src, dst, size, payload
	env.intra = true
	if size <= c.cfg.XpmemThreshold {
		// Double-copy path: sender copies into the shared region.
		cpu += c.cfg.Shm.SendCost(size, shm.DoubleCopy)
	}
	// XPMEM path: no sender copy, the receiver will map and copy once.
	_, arrive := c.loop.Transfer(dst, size, at+cpu)
	env.ArrivedAt = arrive
	c.loop.EnqueueArg(arrive, fireIntraArrive, env)
	return cpu
}

// fireIntraArrive delivers a node-local envelope (closure-free Enqueue).
//
//simlint:hotpath
func fireIntraArrive(arg any) {
	env := arg.(*Envelope)
	env.c.arrive(env.Dst, env, env.ArrivedAt)
}

// onSmsg demultiplexes uGNI SMSG events.
//
//simlint:hotpath
//simlint:proto event dispatch smsg EvSmsg
func (c *Comm) onSmsg(rank int, ev ugni.Event) {
	if ev.Type == ugni.EvCreditReturn {
		// Not a message: the credit window toward ev.Dst reopened.
		c.drainPending(ev)
		return
	}
	env := ev.Payload.(*Envelope)
	c.arrive(rank, env, ev.At)
}

// onRdma handles eager-large PUT arrivals. The descriptor's only CQ event
// is this one, so it returns to the pool here.
//
//simlint:hotpath
//simlint:proto event dispatch mpirdma
//simlint:proto retry bounded
func (c *Comm) onRdma(rank int, ev ugni.Event) {
	if ev.Type == ugni.EvError {
		// Transaction error on an eager-large PUT: bounded retry with
		// exponential virtual-time backoff; the descriptor stays in flight.
		d := ev.Desc
		if d.Attempts > 8 {
			panic(fmt.Sprintf("mpi: PUT to rank %d failed %d times", d.Remote, d.Attempts))
		}
		c.ctr.retransmits++
		if p := c.host.Eng().Probe(); p != nil {
			p.FaultNoted(sim.FaultRetransmit, ev.At)
		}
		c.gni.PostFma(d, ev.At+c.cfg.RetryBase<<(d.Attempts-1))
		return
	}
	if ev.Type != ugni.EvRdmaRemote {
		panic(fmt.Sprintf("mpi: unexpected RDMA event %v", ev.Type))
	}
	env := ev.Payload.(*Envelope)
	c.gni.ReleasePostDesc(ev.Desc)
	c.arrive(rank, env, ev.At)
}

// arrive queues the envelope and fires the arrival hook.
func (c *Comm) arrive(rank int, env *Envelope, at sim.Time) {
	env.ArrivedAt = at
	c.rxq[rank] = append(c.rxq[rank], env)
	if fn := c.onArrival[rank]; fn != nil {
		fn(env)
	}
}

// Iprobe reports (without dequeuing) the oldest probe-visible message for
// rank, mirroring MPI_Iprobe. The caller charges ProbeCost.
func (c *Comm) Iprobe(rank int) (*Envelope, bool) {
	if len(c.rxq[rank]) == 0 {
		return nil, false
	}
	return c.rxq[rank][0], true
}

// Recv completes the receive of env into the caller's buffer, blocking the
// rank's CPU from `at` until the message is fully received (booked on the
// rank's CPU resource). It returns the completion time. For rendezvous
// messages the block spans the whole BTE GET — the behaviour that prevents
// the MPI-based progress engine from overlapping anything else.
func (c *Comm) Recv(env *Envelope, buf BufID, at sim.Time) sim.Time {
	c.dequeue(env)
	var done sim.Time
	switch {
	case env.intra:
		cost := c.cfg.SoftwareOverhead
		if env.Size <= c.cfg.XpmemThreshold {
			cost += c.cfg.Shm.RecvCost(env.Size, shm.DoubleCopy)
		} else {
			cost += c.cfg.XpmemAttach + c.gni.Net.P.Mem.Memcpy(env.Size)
		}
		_, done = c.host.CPU(env.Dst).Acquire(at, cost)

	case !env.Rendezvous:
		// Eager: copy out of the internal buffer.
		cost := c.cfg.SoftwareOverhead + c.gni.Net.P.Mem.Memcpy(env.Size)
		_, done = c.host.CPU(env.Dst).Acquire(at, cost)

	default:
		// Rendezvous: register recv buffer (uDREG), post the GET, block.
		pre := c.cfg.SoftwareOverhead + c.registerCached(env.Dst, buf, env.Size) + c.gni.Net.P.HostPostCPU
		net := c.gni.Net
		_, dataArrive := net.Get(net.NodeOf(env.Dst), net.NodeOf(env.Src), env.Size, gemini.UnitBTE, at+pre)
		end := dataArrive + c.cfg.SoftwareOverhead
		c.host.CPU(env.Dst).Acquire(at, end-at)
		done = end
	}
	c.ctr.recvs++
	// The envelope's delivery is complete: recycle it. Callers must not
	// touch env after Recv returns.
	c.envs.Put(env)
	return done
}

func (c *Comm) dequeue(env *Envelope) {
	q := c.rxq[env.Dst]
	for i, e := range q {
		if e == env {
			copy(q[i:], q[i+1:])
			c.rxq[env.Dst] = q[:len(q)-1]
			return
		}
	}
	panic("mpi: Recv of an envelope not in the unexpected queue")
}
