package main

import (
	"testing"

	"charmgo"
	"charmgo/internal/charm"
	"charmgo/internal/converse"
	"charmgo/internal/gemini"
	"charmgo/internal/mpi"
	"charmgo/internal/sim"
	"charmgo/internal/ugni"
)

// rung is one step of the per-layer ladder: a b.Loop benchmark of one
// public entry point of one layer, from the kernel heap up to the charm
// array send. The traced run reports each rung's ns/op and allocs/op as
// <metric>_ns and <metric>_allocs; `go test -bench Ladder` runs the same
// functions.
type rung struct {
	metric string
	bench  func(b *testing.B)
}

func ladder(stream []booking) []rung {
	return []rung{
		{"sim.schedule_fire", benchScheduleFire},
		{"sim.gap_acquire", func(b *testing.B) { benchGapReplay(b, stream) }},
		{"gemini.transfer", benchTransfer},
		{"ugni.smsg_send", benchSmsgSend},
		{"ugni.post_fma", benchPostFma},
		{"mpi.isend_recv", benchIsendRecv},
		{"converse.send_dispatch", benchSendDispatch},
		{"charm.array_send", benchArraySend},
	}
}

// captureLinkStream runs the namd workload's MPI-layer point with a
// recording probe and returns the booking stream of its busiest torus
// link, the input of the GapResource replay rung.
func captureLinkStream(seed uint64) (string, []booking, error) {
	rec := newLinkRecorder()
	if _, _, err := runPoint(namdPoints(seed)[0], rec); err != nil {
		return "", nil, err
	}
	name, stream := rec.busiest()
	return name, stream, nil
}

// benchScheduleFire: Engine.ScheduleArg plus Step with 1024 events
// pending, each fired event scheduling its successor at a pseudo-random
// delay, so every operation sifts through a heap of realistic depth.
func benchScheduleFire(b *testing.B) {
	e := sim.NewEngine()
	x := uint64(1)
	var fire func(any)
	fire = func(arg any) {
		x = x*6364136223846793005 + 1442695040888963407
		e.ScheduleArg(sim.Time(x>>54)+1, fire, arg)
	}
	for i := 0; i < 1024; i++ {
		e.ScheduleArg(sim.Time(i), fire, nil)
	}
	b.ReportAllocs()
	for b.Loop() {
		e.Step()
	}
}

// benchGapReplay: GapResource.Acquire replaying a recorded link booking
// stream with the recorded kernel clock, one operation per booking. Every
// granted interval must equal the recorded one.
func benchGapReplay(b *testing.B, stream []booking) {
	if len(stream) == 0 {
		b.Fatal("no link booking stream recorded")
	}
	var now sim.Time
	r := sim.NewGapResource(sim.Lit("replay"), func() sim.Time { return now })
	i := 0
	b.ReportAllocs()
	for b.Loop() {
		if i == len(stream) {
			r.Reset()
			i = 0
		}
		bk := stream[i]
		now = bk.now
		if start, end := r.Acquire(bk.at, bk.end-bk.start); start != bk.start || end != bk.end {
			b.Fatalf("booking %d: replay granted [%d,%d), recorded [%d,%d)", i, start, end, bk.start, bk.end)
		}
		i++
	}
}

// benchTransfer: Network.Transfer of 1 KiB over the longest route of a
// 64-node torus, route cache warm. Each transfer is ready when the last
// one left the source, and the clock follows, so the link interval sets
// stay in steady state.
func benchTransfer(b *testing.B) {
	e := sim.NewEngine()
	net := gemini.NewNetwork(e, 64, gemini.DefaultParams())
	defer net.Close()
	dst := 0
	for n := 1; n < net.NumNodes(); n++ {
		if net.Topo.Hops(0, n) > net.Topo.Hops(0, dst) {
			dst = n
		}
	}
	net.Transfer(0, dst, 1024, gemini.UnitFMA, 0)
	b.ReportAllocs()
	for b.Loop() {
		srcDone, _ := net.Transfer(0, dst, 1024, gemini.UnitFMA, e.Now())
		e.RunUntil(srcDone)
	}
}

// gniPair is a bare two-node uGNI stack with a hooked receive queue on
// the remote PE.
func gniPair() (*sim.Engine, *gemini.Network, *ugni.GNI, int, *ugni.CQ) {
	e := sim.NewEngine()
	net := gemini.NewNetwork(e, 2, gemini.DefaultParams())
	g := ugni.New(net)
	peer := net.P.CoresPerNode
	rx := g.CqCreate("rx")
	rx.OnEvent = func(ugni.Event) {}
	g.AttachSmsgCQ(peer, rx)
	return e, net, g, peer, rx
}

// benchSmsgSend: GNI.SmsgSendWTag of 64 bytes between nodes, then running
// the engine until the message is delivered and its credit returned.
func benchSmsgSend(b *testing.B) {
	e, net, g, peer, _ := gniPair()
	defer net.Close()
	b.ReportAllocs()
	for b.Loop() {
		if _, rc, err := g.SmsgSendWTag(0, peer, 0, 64, nil, e.Now(), nil); err != nil || rc != ugni.RCSuccess {
			b.Fatalf("SmsgSendWTag: rc %v, err %v", rc, err)
		}
		e.Run()
	}
}

// benchPostFma: GNI.PostFma of a 1 KiB PUT between nodes, then running the
// engine until the remote completion event is delivered.
func benchPostFma(b *testing.B) {
	e, net, g, peer, rx := gniPair()
	defer net.Close()
	d := &ugni.PostDesc{Kind: ugni.PostPut, Initiator: 0, Remote: peer, Size: 1024, RemoteCQ: rx}
	b.ReportAllocs()
	for b.Loop() {
		g.PostFma(d, e.Now())
		e.Run()
	}
}

// mpiHost gives mpi.Comm its engine and one CPU per rank.
type mpiHost struct {
	eng  sim.Kernel
	cpus []sim.PEResource
}

func (h *mpiHost) Eng() sim.Kernel              { return h.eng }
func (h *mpiHost) CPU(rank int) *sim.PEResource { return &h.cpus[rank] }

// benchIsendRecv: Comm.Isend of a 256-byte eager message between nodes and
// the matching Recv in the arrival hook, with the engine run to drain.
func benchIsendRecv(b *testing.B) {
	e := sim.NewEngine()
	net := gemini.NewNetwork(e, 2, gemini.DefaultParams())
	defer net.Close()
	h := &mpiHost{eng: e, cpus: make([]sim.PEResource, net.NumPEs())}
	for i := range h.cpus {
		sim.InitPEResource(&h.cpus[i], sim.Indexed("cpu", i, ""))
	}
	c := mpi.New(ugni.New(net), h, mpi.DefaultConfig())
	defer c.Close()
	peer := net.P.CoresPerNode
	c.OnArrival(peer, func(env *mpi.Envelope) { c.Recv(env, 1, env.ArrivedAt) })
	b.ReportAllocs()
	for b.Loop() {
		c.Isend(0, peer, 256, nil, 1, e.Now())
		e.Run()
	}
}

// closeMachine returns a machine's construction slabs.
func closeMachine(m *charmgo.Machine) {
	net := m.Net()
	m.Close()
	net.Close()
}

// benchSendDispatch: a handler on PE 0 does Ctx.Send of 64 bytes to a PE
// on the other node of a two-node uGNI machine, whose scheduler dispatches
// it to an empty handler. One operation is one Inject plus Run.
func benchSendDispatch(b *testing.B) {
	m := charmgo.NewMachine(charmgo.MachineConfig{Nodes: 2})
	defer closeMachine(m)
	peer := m.Net().P.CoresPerNode
	sink := m.RegisterHandler(func(*charmgo.Ctx, *charmgo.Message) {})
	src := m.RegisterHandler(func(ctx *charmgo.Ctx, _ *charmgo.Message) { ctx.Send(peer, sink, nil, 64) })
	b.ReportAllocs()
	for b.Loop() {
		m.Inject(0, src, nil, 0, m.Eng().Now())
		m.Run()
	}
}

// benchArraySend: Array.SendPrio of a 1 KiB entry invocation from element
// 0 on PE 0 to element 1 on the other node, at the priority mini-NAMD
// gives its PME traffic. One operation is one Runtime.Resume.
func benchArraySend(b *testing.B) {
	m := charmgo.NewMachine(charmgo.MachineConfig{Nodes: 2})
	defer closeMachine(m)
	peer := m.Net().P.CoresPerNode
	rt := charm.NewRuntime(m)
	arr := rt.NewArray(2, func(int) any { return nil }, func(idx, _, _ int) int { return idx * peer })
	entry := arr.Entry(func(*converse.Ctx, any, any) {})
	send := func(ctx *converse.Ctx) { arr.SendPrio(ctx, 1, entry, nil, 1024, -10) }
	b.ReportAllocs()
	for b.Loop() {
		rt.Resume(send)
	}
}
