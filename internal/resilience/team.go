package resilience

import (
	"fmt"
	"strings"

	"charmgo"
	"charmgo/internal/fault"
	"charmgo/internal/machine/ugnimachine"
	"charmgo/internal/sim"
	"charmgo/internal/trace"
)

// TeamConfig describes one team-replication run.
type TeamConfig struct {
	// Teams is the number of logical ranks R (>= 2). The machine has
	// 2R single-core nodes: plane A hosts PEs [0,R), plane B their
	// replicas [R,2R); team t = {t, t+R} is node-disjoint.
	Teams int
	// Msgs is the stream length: each team produces seqs [0, Msgs).
	Msgs int
	// Size is the application payload size in bytes.
	Size int
	// HB is the heartbeat interval (default 100µs); a replica declares
	// its partner dead after 2*HB of silence.
	HB sim.Time
	// Horizon bounds the pre-injected monitor ticks (default 4ms).
	Horizon sim.Time
	// Layer selects the machine layer (default LayerUGNI).
	Layer charmgo.LayerKind
	// UGNI overrides the uGNI-layer configuration (e.g. DegradeThreshold
	// = 0 for the strict-FIFO property runs).
	UGNI *ugnimachine.Config
	// Faults is the kill/partition/NIC-fault schedule, applied through
	// charmgo.MachineConfig.Faults. Kills must be team-safe (at most
	// one replica per team), e.g. drawn with Killable = plane B.
	Faults *fault.Schedule
	// Probe optionally observes the kernel alongside the strategy's
	// own fault timeline.
	Probe charmgo.Probe
}

// TeamResult is the observable outcome of one team-replication run,
// carrying everything the failover property tests assert on.
type TeamResult struct {
	// FinalTime is the virtual completion time.
	FinalTime sim.Time
	// StreamDone is the virtual time the last application message was
	// applied on any replica — the workload's completion time, free of
	// the monitor-tick tail that dominates FinalTime.
	StreamDone sim.Time
	// Applied[pe] counts logical messages the replica applied from its
	// incoming stream (== Msgs on every surviving replica when
	// exactly-once delivery held).
	Applied []int
	// Dead[pe] reports whether the replica's node was killed.
	Dead []bool
	// FifoViolations counts arrivals whose sequence number was not
	// strictly increasing per physical (producer, intended-replica)
	// connection — zero when per-connection FIFO survived failovers.
	FifoViolations int
	// DroppedDead counts messages retired at dead PEs (heartbeats,
	// ticks, and sends reaped from dead nodes' host memory).
	DroppedDead uint64
	// DeadReaped counts pending-send queue entries reaped from dead
	// nodes' host memory (the layer's dead_reaped stat — nonzero only
	// when a killed node had credit-refused sends still queued).
	DeadReaped int64
	// HeartbeatMisses / Failovers / Reroutes / Kills / Partitions are
	// the strategy's fault-timeline tallies.
	HeartbeatMisses, Failovers, Reroutes, Kills, Partitions int
	// Processed is the machine-wide handled-message count.
	Processed uint64
}

// Signature digests the result deterministically: two runs of the same
// config and seed must produce equal signatures (the double-run replay
// property).
func (r TeamResult) Signature() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%d done=%d fifo=%d drop=%d reap=%d miss=%d fo=%d rr=%d kill=%d part=%d proc=%d applied=",
		int64(r.FinalTime), int64(r.StreamDone), r.FifoViolations, r.DroppedDead, r.DeadReaped,
		r.HeartbeatMisses, r.Failovers, r.Reroutes, r.Kills, r.Partitions, r.Processed)
	for pe, a := range r.Applied {
		if r.Dead[pe] {
			fmt.Fprintf(&b, "x,")
		} else {
			fmt.Fprintf(&b, "%d,", a)
		}
	}
	return b.String()
}

// teamState is the per-run harness state shared by every handler.
type teamState struct {
	m       *charmgo.Machine
	R, msgs int
	size    int
	hb      sim.Time

	appH, beatH, tickH, startH int

	next     []int      // per PE: expected next seq of its in-stream
	applied  []int      // per PE: messages applied
	lastBeat []sim.Time // per PE: last heartbeat heard from partner
	declared []bool     // per PE: partner declared dead
	lastSeq  [][]int    // [src][intended]: last seq seen on connection

	fifoViolations int
	misses, fos    int
	streamDone     sim.Time
}

func (st *teamState) partner(pe int) int { return (pe + st.R) % (2 * st.R) }

// mirrorSend launches one logical message (stream, seq) to BOTH
// replicas of the consumer team — the replication invariant.
func (st *teamState) mirrorSend(ctx *charmgo.Ctx, stream, seq int) {
	dt := (stream + 1) % st.R
	for _, dst := range [2]int{dt, dt + st.R} {
		ctx.Send(dst, st.appH, &appMsg{stream: stream, seq: seq, intended: dst}, st.size)
	}
}

// RunTeam executes the team-replication strategy: a ring of R logical
// streams, each message mirrored to both consumer replicas, heartbeats
// and failure detection in virtual time, and warm failover of in-flight
// sends through the scheduler's DeadRoute. The machine is closed before
// returning, so pool-leak checks can run right after.
func RunTeam(cfg TeamConfig) TeamResult {
	if cfg.Teams < 2 {
		panic(fmt.Sprintf("resilience: RunTeam with %d teams", cfg.Teams))
	}
	if cfg.Msgs <= 0 {
		cfg.Msgs = 16
	}
	if cfg.Size <= 0 {
		cfg.Size = 64
	}
	if cfg.HB <= 0 {
		cfg.HB = 100 * sim.Microsecond
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 4 * sim.Millisecond
	}
	tl := &trace.FaultTimeline{}
	n := 2 * cfg.Teams
	m := charmgo.NewMachine(charmgo.MachineConfig{
		Nodes:        n,
		CoresPerNode: 1,
		Layer:        cfg.Layer,
		UGNI:         cfg.UGNI,
		Faults:       cfg.Faults,
		Probe:        noteProbe(tl, cfg.Probe),
	})
	st := &teamState{
		m: m, R: cfg.Teams, msgs: cfg.Msgs, size: cfg.Size, hb: cfg.HB,
		next:     make([]int, n),
		applied:  make([]int, n),
		lastBeat: make([]sim.Time, n),
		declared: make([]bool, n),
		lastSeq:  make([][]int, n),
	}
	for i := range st.lastSeq {
		st.lastSeq[i] = make([]int, n)
		for j := range st.lastSeq[i] {
			st.lastSeq[i][j] = -1
		}
	}

	st.appH = m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
		am := msg.Data.(*appMsg)
		pe := ctx.PE()
		if last := st.lastSeq[msg.SrcPE][am.intended]; am.seq <= last {
			st.fifoViolations++
		}
		st.lastSeq[msg.SrcPE][am.intended] = am.seq
		// Apply iff next-expected: the dedup rule that turns mirrored
		// (and rerouted) duplicates into exactly-once application.
		if am.seq != st.next[pe] {
			return
		}
		st.next[pe]++
		st.applied[pe]++
		if ctx.Now() > st.streamDone {
			st.streamDone = ctx.Now()
		}
		if k := am.seq + 1; k < st.msgs {
			st.mirrorSend(ctx, pe%st.R, k)
		}
	})
	st.beatH = m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
		st.lastBeat[ctx.PE()] = ctx.Now()
	})
	st.tickH = m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
		pe := ctx.PE()
		ctx.Send(st.partner(pe), st.beatH, nil, 16)
		// Silence for two full intervals means the partner's ticks — which
		// only a live scheduler dispatches — have stopped: declare it dead.
		if !st.declared[pe] && ctx.Now() > 2*st.hb && ctx.Now()-st.lastBeat[pe] > 2*st.hb {
			st.declared[pe] = true
			st.misses++
			st.fos++
			st.m.NoteFault(sim.FaultHeartbeatMiss, ctx.Now())
			st.m.NoteFault(sim.FaultFailover, ctx.Now())
		}
	})
	st.startH = m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
		st.mirrorSend(ctx, ctx.PE()%st.R, 0)
	})

	// Warm failover: application copies addressed to a dead replica
	// re-deliver to its surviving partner (the dedup rule absorbs them);
	// heartbeats and monitor ticks die with the node.
	m.SetDeadRoute(func(msg *charmgo.Message, dead int, at sim.Time) (int, bool) {
		if msg.Handler != st.appH {
			return 0, false
		}
		return st.partner(dead), true
	})

	for pe := 0; pe < n; pe++ {
		m.Inject(pe, st.startH, nil, 0, 0)
		for t := cfg.HB; t <= cfg.Horizon; t += cfg.HB {
			m.Inject(pe, st.tickH, nil, 16, t)
		}
	}
	end := m.Run()

	// The uGNI layer reports the reap tally as dead_reaped, the MPI
	// layer prefixes its comm stats (mpi_dead_reaped).
	layerStats := m.Layer().Stats()
	res := TeamResult{
		FinalTime:       end,
		StreamDone:      st.streamDone,
		Applied:         st.applied,
		Dead:            make([]bool, n),
		FifoViolations:  st.fifoViolations,
		DroppedDead:     m.DroppedDead(),
		DeadReaped:      layerStats["dead_reaped"] + layerStats["mpi_dead_reaped"],
		HeartbeatMisses: st.misses,
		Failovers:       st.fos,
		Reroutes:        tl.Count(sim.FaultReroute),
		Kills:           tl.Count(sim.FaultNodeKill),
		Partitions:      tl.Count(sim.FaultPartition),
		Processed:       m.TotalProcessed(),
	}
	for pe := 0; pe < n; pe++ {
		res.Dead[pe] = m.DeadPE(pe)
	}
	m.Close()
	return res
}

// Check asserts the strategy's contract on a finished run: exactly-once
// application (every surviving replica applied the full stream),
// per-connection FIFO across failovers, and at most one dead replica
// per team. It returns a descriptive error naming the first violation.
func (r TeamResult) Check(cfg TeamConfig) error {
	R := cfg.Teams
	for t := 0; t < R; t++ {
		if r.Dead[t] && r.Dead[t+R] {
			return fmt.Errorf("team %d lost both replicas (kill schedule not team-safe)", t)
		}
	}
	for pe, a := range r.Applied {
		if r.Dead[pe] {
			continue
		}
		if a != cfg.Msgs {
			return fmt.Errorf("replica %d applied %d/%d messages (exactly-once violated)", pe, a, cfg.Msgs)
		}
	}
	if r.FifoViolations != 0 {
		return fmt.Errorf("%d per-connection FIFO violations across failovers", r.FifoViolations)
	}
	return nil
}
