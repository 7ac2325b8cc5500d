package ugni

import (
	"fmt"

	"charmgo/internal/gemini"
	"charmgo/internal/sim"
)

// AMO support: Gemini's FMA unit executes atomic memory operations on
// remote memory ("GNI_PostFma(): It executes a data transaction (PUT, GET,
// or AMO)"). The simulator models 64-bit registers addressed per node;
// fetch-and-add and compare-and-swap execute atomically at the target NIC
// in arrival order, and the old value returns to the initiator's local CQ.

// AMOKind selects the atomic operation.
type AMOKind int

const (
	// AMOFetchAdd adds Delta and returns the previous value.
	AMOFetchAdd AMOKind = iota
	// AMOCompareSwap stores Delta if the current value equals Compare, and
	// returns the previous value either way.
	AMOCompareSwap
)

// String names the kind.
func (k AMOKind) String() string {
	if k == AMOCompareSwap {
		return "CSWAP"
	}
	return "FADD"
}

// AMODesc describes one atomic transaction.
type AMODesc struct {
	Kind      AMOKind
	Initiator int // PE posting the operation
	Remote    int // PE whose node hosts the register
	Addr      int // register id within the target node
	Delta     int64
	Compare   int64 // AMOCompareSwap only
	UserData  any
	LocalCQ   *CQ // receives EvAmoDone with the fetched old value
}

// EvAmoDone is delivered to the initiator's CQ when the AMO completes;
// Event.AmoOld holds the pre-operation value.
//
//simlint:proto event kind polled
const EvAmoDone EventType = 100

// amoWireBytes is the request/response payload size on the wire.
const amoWireBytes = 8

type amoKey struct{ node, addr int }

// AMORead returns the current value of a register (test/diagnostic view —
// not a timed operation).
func (g *GNI) AMORead(node, addr int) int64 {
	return g.amoRegs[amoKey{node, addr}]
}

// amoFlight carries one posted AMO from the wire request through the
// register application at the target NIC: PostAMO schedules amoApply at
// the request's arrival, which is where the
// atomic read-modify-write and the response push happen. Pooled on the
// owning GNI (g.amoFlights); released when amoApply finishes.
//
//simlint:proto flight record
type amoFlight struct {
	g     *GNI
	d     *AMODesc
	rNode int
	at    sim.Time // request arrival at the target NIC
}

// amoApply executes the atomic at the target NIC in arrival order and
// sends the old value back to the initiator's CQ one control flight
// later.
//
//simlint:proto flight complete
func amoApply(arg any) {
	fl := arg.(*amoFlight)
	g, d := fl.g, fl.d
	key := amoKey{fl.rNode, d.Addr}
	old := g.amoRegs[key]
	switch d.Kind {
	case AMOFetchAdd:
		g.amoRegs[key] = old + d.Delta
	case AMOCompareSwap:
		if old == d.Compare {
			g.amoRegs[key] = d.Delta
		}
	default:
		panic(fmt.Sprintf("ugni: unknown AMO kind %d", d.Kind))
	}
	back := g.Net.ControlLatency(fl.rNode, g.Net.NodeOf(d.Initiator))
	d.LocalCQ.push(fl.at+back+g.Net.P.CQLatency, Event{
		Type: EvAmoDone, Src: d.Remote, Dst: d.Initiator,
		Size: amoWireBytes, AmoOld: old, Payload: d.UserData,
	})
	*fl = amoFlight{}
	g.amoFlights.Put(fl)
}

// PostAMO posts an atomic transaction on the FMA unit and returns the host
// CPU cost. The operation applies at the target NIC when the request
// arrives; the old value lands in LocalCQ one flight later.
func (g *GNI) PostAMO(d *AMODesc, at sim.Time) sim.Time {
	if d.LocalCQ == nil {
		panic("ugni: PostAMO requires a LocalCQ")
	}
	if g.amoRegs == nil {
		g.amoRegs = make(map[amoKey]int64)
	}
	iNode := g.Net.NodeOf(d.Initiator)
	rNode := g.Net.NodeOf(d.Remote)
	_, reqArrive := g.Net.Transfer(iNode, rNode, amoWireBytes, gemini.UnitFMA, at)
	fl := g.amoFlights.Get()
	fl.g, fl.d, fl.rNode, fl.at = g, d, rNode, reqArrive
	// The register lives at the remote NIC: apply when the request lands.
	g.Net.Eng.AtArg(reqArrive, amoApply, fl)
	return g.Net.P.HostPostCPU
}
