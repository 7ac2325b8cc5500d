// Package bench is the experiment harness: measurement primitives
// (ping-pong, one-to-all, kNeighbor, bandwidth) over every layer of the
// stack, plus one runner per figure/table of the paper's evaluation
// (see experiments.go and DESIGN.md §3).
package bench

import (
	"fmt"

	"charmgo"
	"charmgo/internal/fault"
	"charmgo/internal/gemini"
	"charmgo/internal/machine/ugnimachine"
	"charmgo/internal/mem"
	"charmgo/internal/mpi"
	"charmgo/internal/sim"
	"charmgo/internal/ugni"
)

// pingIters is the default round-trip count for latency measurements; the
// simulator is deterministic, so a modest count suffices for steady state.
const pingIters = 20

// newStack builds a bare network + GNI (no runtime) for pure benchmarks.
func newStack(nodes int) (*sim.Engine, *gemini.Network, *ugni.GNI) {
	eng := sim.NewEngine()
	net := gemini.NewNetwork(eng, nodes, gemini.DefaultParams())
	return eng, net, ugni.New(net)
}

// closeMachine tears a full runtime stack down after a measurement,
// returning its construction slabs for reuse by the next data point (see
// mem.SlabCache). Experiment loops construct one machine per point, so
// without this the dropped slabs dominate allocated bytes and GC time.
func closeMachine(m *charmgo.Machine) {
	net := m.Net()
	m.Close()
	net.Close()
}

// PureUGNIOneWay measures one-way latency of a size-byte message between
// core 0 of two nodes, written directly against the uGNI API: SMSG below
// the cap, a direct pre-registered RDMA PUT above it (the benchmark reuses
// its buffers, so no registration is on the critical path).
func PureUGNIOneWay(size int) sim.Time {
	eng, net, g := newStack(2)
	defer net.Close()
	pe0, pe1 := 0, net.P.CoresPerNode
	p := net.P

	if size <= g.MaxSmsgSize() {
		rx0, rx1 := g.CqCreate("rx0"), g.CqCreate("rx1")
		g.AttachSmsgCQ(pe0, rx0)
		g.AttachSmsgCQ(pe1, rx1)
		var done sim.Time
		count := 0
		send := func(src, dst int, at sim.Time) {
			if _, rc, err := g.SmsgSendWTag(src, dst, 0, size, nil, at+p.HostSendCPU, nil); err != nil || rc != ugni.RCSuccess {
				panic(fmt.Sprintf("smsg send: %v (%v)", err, rc))
			}
		}
		rx1.OnEvent = func(ev ugni.Event) { send(pe1, pe0, ev.At+p.HostCQPollCPU) }
		rx0.OnEvent = func(ev ugni.Event) {
			count++
			if count == pingIters {
				done = ev.At
				return
			}
			send(pe0, pe1, ev.At+p.HostCQPollCPU)
		}
		send(pe0, pe1, 0)
		eng.Run()
		return done / (2 * pingIters)
	}

	// RDMA PUT ping-pong with pre-registered, address-exchanged buffers.
	cq0, cq1 := g.CqCreate("rdma0"), g.CqCreate("rdma1")
	unit := g.PostFma
	if size >= gemini.FMABTECrossover {
		unit = g.PostRdma
	}
	var done sim.Time
	count := 0
	put := func(src, dst int, rcq *ugni.CQ, at sim.Time) {
		unit(&ugni.PostDesc{
			Kind: ugni.PostPut, Initiator: src, Remote: dst, Size: size, RemoteCQ: rcq,
		}, at+p.HostPostCPU)
	}
	cq1.OnEvent = func(ev ugni.Event) { put(pe1, pe0, cq0, ev.At+p.HostCQPollCPU) }
	cq0.OnEvent = func(ev ugni.Event) {
		count++
		if count == pingIters {
			done = ev.At
			return
		}
		put(pe0, pe1, cq1, ev.At+p.HostCQPollCPU)
	}
	put(pe0, pe1, cq1, 0)
	eng.Run()
	return done / (2 * pingIters)
}

// FigureFourPoint measures a single one-way data movement with the given
// unit and direction (Figure 4: FMA/BTE x Put/Get).
func FigureFourPoint(size int, unit gemini.Unit, get bool) sim.Time {
	_, net, _ := newStack(2)
	defer net.Close()
	if get {
		_, arrive := net.Get(0, 1, size, unit, 0)
		return arrive
	}
	_, arrive := net.Transfer(0, 1, size, unit, 0)
	return arrive
}

// mpiHost adapts a bare CPU set to mpi.Host for pure-MPI benchmarks. The
// CPUs live in one slab (one allocation for the whole host).
type mpiHost struct {
	eng  *sim.Engine
	cpus []sim.PEResource
}

// hostPESlabs recycles the pure-MPI host's CPU slab across measurements.
var hostPESlabs mem.SlabCache[sim.PEResource]

func newMPIHost(eng *sim.Engine, n int) *mpiHost {
	h := &mpiHost{eng: eng, cpus: hostPESlabs.Get(n)}
	for i := range h.cpus {
		sim.InitPEResource(&h.cpus[i], sim.Indexed("cpu", i, ""))
	}
	return h
}

func (h *mpiHost) close() {
	hostPESlabs.Put(h.cpus)
	h.cpus = nil
}

func (h *mpiHost) Eng() *sim.Engine             { return h.eng }
func (h *mpiHost) CPU(rank int) *sim.PEResource { return &h.cpus[rank] }

// PureMPIOneWay measures MPI ping-pong one-way latency. With sameBuf the
// two ranks reuse one send/recv buffer each (uDREG hits after warmup);
// otherwise every transfer uses a fresh buffer (uDREG misses — the paper's
// Figure 9(a) distinction). Intra selects node-local ranks.
func PureMPIOneWay(size int, sameBuf, intra bool) sim.Time {
	nodes := 2
	if intra {
		nodes = 1
	}
	eng, net, g := newStack(nodes)
	h := newMPIHost(eng, net.NumPEs())
	c := mpi.New(g, h, mpi.DefaultConfig())
	r0, r1 := 0, net.P.CoresPerNode
	if intra {
		r1 = 1
	}

	nextBuf := mpi.BufID(100)
	buf := func(rank int) mpi.BufID {
		if sameBuf {
			return mpi.BufID(rank + 1)
		}
		nextBuf++
		return nextBuf
	}

	const warmup = 2
	iters := pingIters + warmup
	count := 0
	var start, done sim.Time
	c.OnArrival(r1, func(env *mpi.Envelope) {
		end := c.Recv(env, buf(r1), env.ArrivedAt+c.ProbeCost())
		c.Isend(r1, r0, size, nil, buf(r1), end)
	})
	c.OnArrival(r0, func(env *mpi.Envelope) {
		end := c.Recv(env, buf(r0), env.ArrivedAt+c.ProbeCost())
		count++
		if count == warmup {
			start = end
		}
		if count == iters {
			done = end
			return
		}
		c.Isend(r0, r1, size, nil, buf(r0), end)
	})
	c.Isend(0, r1, size, nil, buf(r0), 0)
	eng.Run()
	c.Close()
	h.close()
	net.Close()
	return (done - start) / (2 * pingIters)
}

// CharmPingPong configures a runtime-level ping-pong measurement.
type CharmPingPong struct {
	Layer charmgo.LayerKind
	UGNI  *ugnimachine.Config // optional layer override
	Size  int
	Intra bool // node-local peers
	// Persistent uses the persistent-message API (uGNI layer only).
	Persistent bool
	// Params overrides hardware constants (nil keeps the defaults).
	Params *gemini.Params
	// Faults injects a deterministic fault schedule (nil runs clean).
	Faults *fault.Schedule
}

// OneWay runs the ping-pong and returns the steady-state one-way latency,
// after a short warmup (the paper's benchmark reuses buffers; the memory
// pool makes reuse automatic here).
func (b CharmPingPong) OneWay() sim.Time {
	nodes := 2
	m := charmgo.NewMachine(charmgo.MachineConfig{
		Nodes: nodes, Layer: b.Layer, UGNI: b.UGNI,
		Params: b.Params, Faults: b.Faults,
	})
	peer := m.Net().P.CoresPerNode
	if b.Intra {
		peer = 1
	}
	const warmup = 2
	iters := pingIters + warmup
	var start, done sim.Time
	count := 0

	var fwd, bwd charmgo.PersistentHandle
	bwdReady := false
	var pongH, pingH int
	send := func(ctx *charmgo.Ctx, dst, handler int, h charmgo.PersistentHandle) {
		if b.Persistent {
			if err := ctx.SendPersistent(h, dst, handler, nil, b.Size); err != nil {
				panic(err)
			}
			return
		}
		ctx.Send(dst, handler, nil, b.Size)
	}
	pongH = m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
		if b.Persistent && !bwdReady {
			// The reverse channel is created from its source PE on the
			// first pong (warmup covers the setup cost).
			var err error
			if bwd, err = ctx.CreatePersistent(0, b.Size); err != nil {
				panic(err)
			}
			bwdReady = true
		}
		send(ctx, 0, pingH, bwd)
	})
	pingH = m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
		count++
		if count == warmup {
			start = ctx.Now()
		}
		if count == iters {
			done = ctx.Now()
			return
		}
		send(ctx, peer, pongH, fwd)
	})
	seed := m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
		if b.Persistent {
			var err error
			if fwd, err = ctx.CreatePersistent(peer, b.Size); err != nil {
				panic(err)
			}
		}
		send(ctx, peer, pongH, fwd)
	})
	m.Inject(0, seed, nil, 0, 0)
	m.Run()
	closeMachine(m)
	if done == 0 {
		panic("bench: ping-pong never completed")
	}
	return (done - start) / (2 * pingIters)
}

// Bandwidth measures achieved bandwidth (MB/s) by streaming window
// messages of the given size from PE 0 to a remote core and timing until
// the last is delivered.
func Bandwidth(layer charmgo.LayerKind, size int) float64 {
	const window = 8
	m := charmgo.NewMachine(charmgo.MachineConfig{Nodes: 2, Layer: layer})
	peer := m.Net().P.CoresPerNode
	var start, done sim.Time
	got := 0
	recv := m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
		got++
		if got == window {
			done = ctx.Now()
		}
	})
	seed := m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
		start = ctx.Now()
		for i := 0; i < window; i++ {
			ctx.Send(peer, recv, nil, size)
		}
	})
	m.Inject(0, seed, nil, 0, 0)
	m.Run()
	closeMachine(m)
	bytes := float64(window) * float64(size)
	secs := (done - start).Seconds()
	return bytes / secs / 1e6
}

// OneToAll measures the Figure 9(c) benchmark: PE 0 sends a size-byte
// message to one core on each remote node and waits for all acks; the
// returned value is the steady-state time of one full exchange.
func OneToAll(layer charmgo.LayerKind, nodes, size int) sim.Time {
	m := charmgo.NewMachine(charmgo.MachineConfig{Nodes: nodes, Layer: layer})
	cores := m.Net().P.CoresPerNode
	targets := nodes - 1
	const warmup, iters = 1, 5
	var start, done sim.Time
	round, acks := 0, 0

	var ackH, pingH, seedH int
	ackH = m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
		acks++
		if acks < targets {
			return
		}
		acks = 0
		round++
		switch round {
		case warmup:
			start = ctx.Now()
		case warmup + iters:
			done = ctx.Now()
			return
		}
		for n := 1; n < nodes; n++ {
			ctx.Send(n*cores, pingH, nil, size)
		}
	})
	pingH = m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
		ctx.Send(0, ackH, nil, 8)
	})
	seedH = m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
		for n := 1; n < nodes; n++ {
			ctx.Send(n*cores, pingH, nil, size)
		}
	})
	m.Inject(0, seedH, nil, 0, 0)
	m.Run()
	closeMachine(m)
	return (done - start) / iters
}

// KNeighbor measures the Figure 10 benchmark: `cores` PEs (one per node)
// in a ring; each sends size-byte messages to its k left and k right
// neighbours every iteration and acks each received message with the same
// buffer; an iteration completes on a PE when its 2k acks are back. The
// returned value is the steady-state per-iteration time.
func KNeighbor(layer charmgo.LayerKind, cores, k, size int) sim.Time {
	m := charmgo.NewMachine(charmgo.MachineConfig{Nodes: cores, Layer: layer})
	cpn := m.Net().P.CoresPerNode
	pe := func(i int) int { return ((i % cores) + cores) % cores * cpn }
	rank := func(p int) int { return p / cpn }
	const warmup, iters = 1, 5
	perIter := 2 * k

	acks := make([]int, cores)
	rounds := make([]int, cores)
	globalDone := 0
	var start, done sim.Time

	var ackH, pingH int
	sendRound := func(ctx *charmgo.Ctx, r int) {
		for d := 1; d <= k; d++ {
			ctx.Send(pe(r+d), pingH, nil, size)
			ctx.Send(pe(r-d), pingH, nil, size)
		}
	}
	pingH = m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
		ctx.Send(msg.SrcPE, ackH, nil, size)
	})
	ackH = m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
		r := rank(ctx.PE())
		acks[r]++
		if acks[r] < perIter {
			return
		}
		acks[r] = 0
		rounds[r]++
		if rounds[r] == warmup+iters {
			globalDone++
			if globalDone == 1 {
				done = ctx.Now()
			}
			return
		}
		if r == 0 && rounds[r] == warmup {
			start = ctx.Now()
		}
		sendRound(ctx, r)
	})
	seedH := m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
		sendRound(ctx, rank(ctx.PE()))
	})
	for r := 0; r < cores; r++ {
		m.Inject(pe(r), seedH, nil, 0, 0)
	}
	m.Run()
	closeMachine(m)
	return (done - start) / iters
}
