// Package mpimachine is the baseline machine layer the paper compares
// against: the CHARM++-style runtime implemented over MPI (internal/mpi).
//
// Its progress engine mirrors the structure the paper criticizes: for every
// incoming message it pays an MPI_Iprobe, mallocs a fresh landing buffer
// (no memory pool — MPI demands user-supplied buffers), and calls blocking
// MPI_Recv, which for rendezvous-sized messages occupies the PE for the
// whole transfer ("once a MPI_IProbe returns true, the progress engine
// calls blocking MPI_Recv ... which prevents the progress engine from doing
// any other work"). Sends allocate fresh buffers every time, so the uDREG
// registration cache always misses for large messages.
package mpimachine

import (
	"fmt"

	"charmgo/internal/lrts"
	"charmgo/internal/mpi"
	"charmgo/internal/sim"
	"charmgo/internal/ugni"
)

// Config tunes the layer.
type Config struct {
	// MPI configures the underlying library.
	MPI mpi.Config
}

// DefaultConfig returns the Cray-MPI-like defaults.
func DefaultConfig() Config {
	return Config{MPI: mpi.DefaultConfig()}
}

// Layer implements lrts.Layer over MPI.
type Layer struct {
	gni  *ugni.GNI
	cfg  Config
	comm *mpi.Comm
	host lrts.Host

	// Per-PE progress-engine state: arrived-but-unreceived envelopes and
	// whether a pump event is pending. The pump serializes Iprobe/Recv
	// work with handler execution in FIFO order, exactly like the real
	// progress loop (receive one message, deliver it, then probe again).
	queues  [][]*mpi.Envelope
	pumping []bool
	pumps   []pumpState // slab: closure-free pump scheduling args

	nextBuf int64
	sends   int64 // SyncSend count (plain field: hot path)
}

// pumpState is the per-PE argument for the closure-free pump event.
type pumpState struct {
	l  *Layer
	pe int
}

// New builds the layer; converse.NewMachine calls Start.
func New(g *ugni.GNI, cfg Config) *Layer {
	return &Layer{gni: g, cfg: cfg}
}

// Name implements lrts.Layer.
func (l *Layer) Name() string { return "mpi" }

// Stats implements lrts.Layer.
func (l *Layer) Stats() map[string]int64 {
	out := make(map[string]int64, 8)
	if l.sends != 0 {
		out["sends"] = l.sends
	}
	for k, v := range l.comm.Stats() {
		out["mpi_"+k] = v
	}
	return out
}

// Start implements lrts.Layer.
func (l *Layer) Start(h lrts.Host) {
	l.host = h
	l.comm = mpi.New(l.gni, h, l.cfg.MPI)
	n := h.NumPEs()
	l.queues = make([][]*mpi.Envelope, n)
	l.pumping = make([]bool, n)
	l.pumps = make([]pumpState, n)
	// One shared arrival hook for every rank: the envelope carries its
	// destination, so no per-PE closures are needed.
	onArr := func(env *mpi.Envelope) {
		pe := env.Dst
		l.queues[pe] = append(l.queues[pe], env)
		l.pump(pe)
	}
	for pe := 0; pe < n; pe++ {
		l.pumps[pe] = pumpState{l: l, pe: pe}
		l.comm.OnArrival(pe, onArr)
	}
}

// Close releases the communicator's construction slabs for reuse (see
// mem.SlabCache). The layer and its stack must not be used afterwards.
func (l *Layer) Close() {
	if l.comm != nil {
		l.comm.Close()
	}
}

// freshBuf models CHARM++-on-MPI's fresh allocation per message: every
// buffer gets a new identity, so the registration cache never hits.
func (l *Layer) freshBuf() mpi.BufID {
	l.nextBuf++
	return mpi.BufID(l.nextBuf)
}

// SyncSend implements LrtsSyncSend via MPI_Isend.
//
//simlint:hotpath
func (l *Layer) SyncSend(ctx lrts.SendContext, msg *lrts.Message) {
	l.sends++
	cpu := l.comm.Isend(msg.SrcPE, msg.DstPE, msg.Size, msg, l.freshBuf(), ctx.Now())
	ctx.Charge(cpu)
}

// pump schedules one progress-engine step for pe once its CPU frees up.
// Without it, an eagerly booked blocking Recv for a later message could
// jump ahead of the delivery of an earlier one.
func (l *Layer) pump(pe int) {
	if l.pumping[pe] || len(l.queues[pe]) == 0 {
		return
	}
	l.pumping[pe] = true
	eng := l.host.Eng()
	t := eng.Now()
	if f := l.host.CPU(pe).FreeAt(); f > t {
		t = f
	}
	// One-nanosecond yield: a message delivered at exactly t must win the
	// CPU (its dispatch event is already queued) before the next probe.
	eng.AtArg(t+1, firePump, &l.pumps[pe])
}

// firePump runs one scheduled progress-engine step (closure-free pump).
//
//simlint:hotpath
func firePump(arg any) {
	ps := arg.(*pumpState)
	l, pe := ps.l, ps.pe
	l.pumping[pe] = false
	now := l.host.Eng().Now()
	if f := l.host.CPU(pe).FreeAt(); f > now {
		// A handler (or another booking) took the CPU meanwhile.
		l.pump(pe)
		return
	}
	q := l.queues[pe]
	env := q[0]
	copy(q, q[1:])
	l.queues[pe] = q[:len(q)-1]
	l.receiveOne(pe, env, now)
	l.pump(pe)
}

// receiveOne is one progress-engine iteration: probe, allocate a landing
// buffer, blocking-receive, deliver. The probe cost grows with the
// unexpected-message queue length, modelling the "prolonged MPI_Iprobe"
// behaviour the paper reports when fine-grain messages flood a rank
// (capped at 16x the base cost).
func (l *Layer) receiveOne(pe int, env *mpi.Envelope, at sim.Time) {
	m := l.gni.Net.P.Mem
	probeScale := sim.Time(1 + len(l.queues[pe])/4)
	if probeScale > 16 {
		probeScale = 16
	}
	pre := l.comm.ProbeCost()*probeScale + m.Malloc(env.Size)
	s, e := l.host.CPU(pe).Acquire(at, pre)
	// Recv recycles the envelope, so extract the payload first.
	msg, ok := env.Payload.(*lrts.Message)
	if !ok {
		panic(fmt.Sprintf("mpimachine: foreign payload %T", env.Payload))
	}
	done := l.comm.Recv(env, l.freshBuf(), e)
	l.host.NoteOverhead(pe, s, done)
	msg.ReleaseBy = l
	l.host.Deliver(pe, msg, done)
}

// ReleaseBuf implements lrts.BufReleaser: the MPI baseline mallocs a fresh
// landing buffer per message (no pool), so release is a plain free.
func (l *Layer) ReleaseBuf(pe, capacity int, registered bool) sim.Time {
	return l.gni.Net.P.Mem.Free()
}

// CreatePersistent implements lrts.Layer: unsupported on the MPI baseline
// (the paper's persistent API is an LRTS extension of the uGNI layer).
func (l *Layer) CreatePersistent(lrts.SendContext, int, int) (lrts.PersistentHandle, error) {
	return 0, lrts.ErrUnsupported
}

// SendPersistent implements lrts.Layer: unsupported.
func (l *Layer) SendPersistent(lrts.SendContext, lrts.PersistentHandle, *lrts.Message) error {
	return lrts.ErrUnsupported
}

var _ lrts.Layer = (*Layer)(nil)
