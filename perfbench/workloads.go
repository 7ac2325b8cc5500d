package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"charmgo"
	"charmgo/internal/bench"
	"charmgo/internal/machine/mpimachine"
	"charmgo/internal/md"
	"charmgo/internal/mem"
	"charmgo/internal/sim"
	"charmgo/internal/ssse"
)

// defaultSeed is the seed whose virtual-time results are recorded in
// expected.json; it matches the experiment harness's default, so the
// recorded values are also the paper-figure goldens (Fig 9a, Fig 13,
// Table I).
const defaultSeed = 1

// workload is one set of inputs the benchmark runs. NOTES.md says why each
// exists and which metrics it should move.
type workload struct {
	name string
	// points generates the workload's operations from the seed.
	points func(seed uint64) []point
	// passesPerSample groups short passes into one timed sample so every
	// sample lasts long enough to carry its share of GC and scheduling
	// noise; wall_s is still reported per pass.
	passesPerSample int
}

var workloads = []workload{
	{name: "pingpong", points: pingpongPoints, passesPerSample: 40},
	{name: "namd", points: namdPoints, passesPerSample: 1},
	{name: "nqueens", points: nqueensPoints, passesPerSample: 1},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// point is one operation: one machine built, driven and torn down.
type point struct {
	name         string
	layer        charmgo.LayerKind
	nodes        int
	coresPerNode int // 0 keeps the hardware default
	drive        func(m *charmgo.Machine) virt
	// solutions, when non-zero, is the N-Queens count the run must find.
	solutions uint64
	// oracle, for ping-pong points, is the experiment harness's own
	// measurement of the same operation; the reference pass's one-way
	// latency must equal it.
	oracle func() sim.Time
}

// virt is everything a point computes in virtual time, plus the
// simulator's own counters for the run. Probes are pure observers and the
// simulator is deterministic, so every run of a point in one process must
// produce an identical virt.
type virt struct {
	OneWay    sim.Time // ping-pong one-way latency
	MsPerStep float64  // mini-NAMD measured step time
	Elapsed   sim.Time // N-Queens time to quiescence
	Solutions uint64
	Tasks     uint64
	TreeNodes uint64

	End       sim.Time // kernel clock after the run
	Events    uint64   // Kernel.Fired
	Transfers uint64   // Network.Stats
	Bytes     int64
	Processed uint64 // Machine.TotalProcessed

	SmsgSent, RdmaSent, PersistSent             int64 // ugnimachine Layer.Stats
	EagerSent, RndvSent, UdregHits, UdregMisses int64 // mpimachine Layer.Stats
}

// recorded is the part of a point's result that expected.json pins for
// the default seed: the modelled design's virtual-time outputs. Counters
// such as Events may legitimately change with a simulator optimization;
// these may not.
type recorded struct {
	OneWayNs  int64   `json:"one_way_ns,omitempty"`
	MsPerStep float64 `json:"ms_per_step,omitempty"`
	ElapsedNs int64   `json:"elapsed_ns,omitempty"`
	Solutions uint64  `json:"solutions,omitempty"`
}

func (v virt) recorded() recorded {
	return recorded{
		OneWayNs:  int64(v.OneWay),
		MsPerStep: v.MsPerStep,
		ElapsedNs: int64(v.Elapsed),
		Solutions: v.Solutions,
	}
}

// hostCost is the host time one point took.
type hostCost struct {
	setup time.Duration // NewMachine plus Close
	run   time.Duration // the drive call (Machine.Run and the app around it)
}

// machineProbe is a probe that watches one machine at a time; runPoint
// tells it when a new machine starts so per-machine state (the kernel
// clock, resource names) starts afresh.
type machineProbe interface {
	sim.Probe
	startMachine()
}

// runPoint builds the point's machine, drives it and tears it down. A
// panic or a pooled descriptor left live afterwards is returned as an
// error.
func runPoint(p point, probe machineProbe) (v virt, h hostCost, err error) {
	live := mem.LiveDescriptors()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: panic: %v", p.name, r)
		}
	}()
	cfg := charmgo.MachineConfig{Nodes: p.nodes, CoresPerNode: p.coresPerNode, Layer: p.layer}
	if probe != nil {
		probe.startMachine()
		cfg.Probe = probe
	}
	t0 := time.Now()
	m := charmgo.NewMachine(cfg)
	t1 := time.Now()
	v = p.drive(m)
	t2 := time.Now()
	v.End = m.Eng().Now()
	v.Events = m.Eng().Fired()
	tr, by := m.Net().Stats()
	v.Transfers, v.Bytes = tr, by
	v.Processed = m.TotalProcessed()
	st := m.Layer().Stats()
	if _, ok := m.Layer().(*mpimachine.Layer); ok {
		v.EagerSent, v.RndvSent = st["mpi_eager_sent"], st["mpi_rndv_sent"]
		v.UdregHits, v.UdregMisses = st["mpi_udreg_hits"], st["mpi_udreg_misses"]
	} else {
		v.SmsgSent, v.RdmaSent, v.PersistSent = st["smsg_sent"], st["rdma_sent"], st["persist_sent"]
	}
	t3 := time.Now()
	net := m.Net()
	m.Close()
	net.Close()
	t4 := time.Now()
	h = hostCost{setup: t1.Sub(t0) + t4.Sub(t3), run: t2.Sub(t1)}
	if n := mem.LiveDescriptors(); n != live {
		return v, h, fmt.Errorf("%s: %d pooled descriptors live after teardown, %d before", p.name, n, live)
	}
	if p.solutions != 0 && v.Solutions != p.solutions {
		return v, h, fmt.Errorf("%s: %d solutions, want %d", p.name, v.Solutions, p.solutions)
	}
	return v, h, nil
}

// pass is one run of every point of a workload.
type pass struct {
	wall    time.Duration
	setup   time.Duration
	runUGNI time.Duration // drive time on uGNI-layer machines
	runMPI  time.Duration // drive time on MPI-layer machines
	results []virt
	failed  int
}

// runPass runs every point once. want holds the results each point must
// reproduce (nil for the reference pass); a mismatch, an error or a panic
// fails the point.
func runPass(pts []point, want []virt, probe machineProbe, log func(string)) pass {
	ps := pass{results: make([]virt, len(pts))}
	start := time.Now()
	for i, p := range pts {
		v, h, err := runPoint(p, probe)
		ps.results[i] = v
		ps.setup += h.setup
		if p.layer == charmgo.LayerMPI {
			ps.runMPI += h.run
		} else {
			ps.runUGNI += h.run
		}
		switch {
		case err != nil:
			ps.failed++
			log(err.Error())
		case want != nil && v != want[i]:
			ps.failed++
			log(fmt.Sprintf("%s: result %+v differs from the reference run's %+v", p.name, v, want[i]))
		}
	}
	ps.wall = time.Since(start)
	return ps
}

// sample is one timed group of passes, normalised to one pass.
type sample struct {
	wall, setup, runUGNI, runMPI time.Duration
	allocBytes, mallocs          uint64
}

// measure runs timed samples of passesPerSample passes each until the time
// budget is spent (always at least one sample). Every pass must reproduce
// want exactly.
func measure(w workload, pts []point, want []virt, budget time.Duration, probe machineProbe, log func(string)) (samples []sample, attempted, failed int) {
	var ms runtime.MemStats
	deadline := time.Now().Add(budget)
	for len(samples) == 0 || time.Now().Before(deadline) {
		runtime.ReadMemStats(&ms)
		alloc0, mallocs0 := ms.TotalAlloc, ms.Mallocs
		var s sample
		k := w.passesPerSample
		for i := 0; i < k; i++ {
			ps := runPass(pts, want, probe, log)
			s.wall += ps.wall
			s.setup += ps.setup
			s.runUGNI += ps.runUGNI
			s.runMPI += ps.runMPI
			attempted += len(pts)
			failed += ps.failed
		}
		runtime.ReadMemStats(&ms)
		d := time.Duration(k)
		s.wall, s.setup, s.runUGNI, s.runMPI = s.wall/d, s.setup/d, s.runUGNI/d, s.runMPI/d
		s.allocBytes = (ms.TotalAlloc - alloc0) / uint64(k)
		s.mallocs = (ms.Mallocs - mallocs0) / uint64(k)
		samples = append(samples, s)
	}
	return samples, attempted, failed
}

// pingpongSizes returns one message size per power of two from 8 B to
// 4 MiB. The default seed uses the powers of two themselves (Fig 9a's
// axis); any other seed draws each size uniformly from its octave, so the
// protocol mix (SMSG, FMA/BTE rendezvous, pxshm) stays the same.
func pingpongSizes(seed uint64) []int {
	var sizes []int
	rng := rand.New(rand.NewPCG(seed, 0x70696e67))
	for s := 8; s <= 4<<20; s *= 2 {
		size := s
		if seed != defaultSeed && s < 4<<20 {
			size = s + rng.IntN(s)
		}
		sizes = append(sizes, size)
	}
	return sizes
}

// pingpongPoints: for every size, charm-level ping-pong on both layers
// between nodes and within a node, plus uGNI persistent channels between
// nodes.
func pingpongPoints(seed uint64) []point {
	var pts []point
	for _, size := range pingpongSizes(seed) {
		for _, c := range []struct {
			layer      charmgo.LayerKind
			intra      bool
			persistent bool
			label      string
		}{
			{charmgo.LayerUGNI, false, false, "ugni/inter"},
			{charmgo.LayerMPI, false, false, "mpi/inter"},
			{charmgo.LayerUGNI, true, false, "ugni/intra"},
			{charmgo.LayerMPI, true, false, "mpi/intra"},
			{charmgo.LayerUGNI, false, true, "ugni-persistent/inter"},
		} {
			pts = append(pts, point{
				name:  fmt.Sprintf("pingpong/%s/%d", c.label, size),
				layer: c.layer,
				nodes: 2,
				drive: func(m *charmgo.Machine) virt {
					return virt{OneWay: pingPong(m, size, c.intra, c.persistent)}
				},
				oracle: bench.CharmPingPong{Layer: c.layer, Size: size, Intra: c.intra, Persistent: c.persistent}.OneWay,
			})
		}
	}
	return pts
}

// pingPong is a closed-loop ping-pong over the public charmgo API: PE 0
// pings a peer on the second node (or PE 1 when intra), which pongs back,
// and each ping waits for its pong. After two warm-up round trips it times
// 20 more and returns the one-way latency. It follows the experiment
// harness's charm-level ping-pong step for step, so its results are
// Fig 9a's charm/ugni and charm/mpi columns.
func pingPong(m *charmgo.Machine, size int, intra, persistent bool) sim.Time {
	const warmup, iters = 2, 20
	peer := m.Net().P.CoresPerNode
	if intra {
		peer = 1
	}
	var start, done sim.Time
	count := 0
	var fwd, bwd charmgo.PersistentHandle
	bwdReady := false
	var pongH, pingH int
	send := func(ctx *charmgo.Ctx, dst, handler int, h charmgo.PersistentHandle) {
		if persistent {
			if err := ctx.SendPersistent(h, dst, handler, nil, size); err != nil {
				panic(err)
			}
			return
		}
		ctx.Send(dst, handler, nil, size)
	}
	pongH = m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
		if persistent && !bwdReady {
			// The reverse channel is created from its source PE on the
			// first pong; the warm-up round trips absorb the set-up cost.
			var err error
			if bwd, err = ctx.CreatePersistent(0, size); err != nil {
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
		if count == warmup+iters {
			done = ctx.Now()
			return
		}
		send(ctx, peer, pongH, fwd)
	})
	seedH := m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
		if persistent {
			var err error
			if fwd, err = ctx.CreatePersistent(peer, size); err != nil {
				panic(err)
			}
		}
		send(ctx, peer, pongH, fwd)
	})
	m.Inject(0, seedH, nil, 0, 0)
	m.Run()
	if done == 0 {
		panic("ping-pong never completed")
	}
	return (done - start) / (2 * iters)
}

// namdPoints: mini-NAMD on IAPP at 960 cores (Fig 13's first point) on
// both layers, with Fig 13's warm-up, load balancing and step count. The
// seed drives the per-patch atom-count jitter.
func namdPoints(seed uint64) []point {
	var pts []point
	for _, layer := range []charmgo.LayerKind{charmgo.LayerMPI, charmgo.LayerUGNI} {
		nodes, cpn := geomFor(960)
		pts = append(pts, point{
			name:  fmt.Sprintf("namd/IAPP/960/%s", layer),
			layer: layer, nodes: nodes, coresPerNode: cpn,
			drive: func(m *charmgo.Machine) virt {
				r := md.Run(m, md.Config{System: md.IAPP, Steps: 4, Warmup: 2, LB: true, Seed: seed})
				return virt{MsPerStep: r.MsPerStep}
			},
		})
	}
	return pts
}

// nqueensPoints: a 14-queens strong-scaling sweep on both layers at the
// thresholds of Table I's 14-queens row (uGNI 5, MPI 4). The core counts
// include that row's (uGNI 256, MPI 48). The seed drives random task
// placement; every point must find all 365,596 solutions.
func nqueensPoints(seed uint64) []point {
	const n = 14
	var pts []point
	for _, layer := range []struct {
		kind      charmgo.LayerKind
		threshold int
	}{{charmgo.LayerUGNI, 5}, {charmgo.LayerMPI, 4}} {
		for _, cores := range []int{32, 48, 128, 256} {
			nodes, cpn := geomFor(cores)
			cfg := ssse.Config{N: n, Threshold: layer.threshold, Seed: seed, ChunkSize: queensChunk(n, layer.threshold)}
			pts = append(pts, point{
				name:  fmt.Sprintf("nqueens/%d/%s/%d", n, layer.kind, cores),
				layer: layer.kind, nodes: nodes, coresPerNode: cpn,
				solutions: ssse.Solutions[n],
				drive: func(m *charmgo.Machine) virt {
					r := ssse.Run(m, cfg)
					return virt{Elapsed: r.Elapsed, Solutions: r.Solutions, Tasks: r.Tasks, TreeNodes: r.Nodes}
				},
			})
		}
	}
	return pts
}

// geomFor picks the smallest node count (at most 24 cores per node) that
// divides cores exactly, as the experiment harness does for its scaling
// runs, so the machine has precisely cores PEs.
func geomFor(cores int) (nodes, coresPerNode int) {
	nodes = (cores + 23) / 24
	for cores%nodes != 0 {
		nodes++
	}
	return nodes, cores / nodes
}

// queensChunk sizes task bundles the way the experiment harness does (the
// paper's ~15K messages at threshold 6 for 17-queens).
func queensChunk(n, threshold int) int {
	target := uint64(15000)
	for t := 6; t < threshold; t++ {
		target *= 8
	}
	return max(1, int(ssse.CountPartials(n, threshold)/target))
}
