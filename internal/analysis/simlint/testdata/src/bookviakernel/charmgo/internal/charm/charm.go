// Package charm sits above the NIC-engine boundary, so every direct
// booking call is a violation.
package charm

import "charmgo/internal/sim"

func Bad(e *sim.Engine, g *sim.GapResource, p *sim.PEResource, n sim.NICEngine) {
	e.Schedule(0, nil) // want `direct kernel booking sim\.Engine\.Schedule from internal/charm`
	e.At(0, nil)       // want `direct kernel booking sim\.Engine\.At from internal/charm`
	g.Acquire(0, 0)    // want `direct kernel booking sim\.GapResource\.Acquire from internal/charm`
	g.Peek(0)          // want `direct kernel booking sim\.GapResource\.Peek from internal/charm`
	p.Acquire(0, 0)    // want `direct kernel booking sim\.PEResource\.Acquire from internal/charm`
	n.Transfer(8)      // want `direct kernel booking sim\.NICEngine\.Transfer from internal/charm`
	n.Get(8)           // want `direct kernel booking sim\.NICEngine\.Get from internal/charm`
	n.Enqueue(8)       // want `direct kernel booking sim\.NICEngine\.Enqueue from internal/charm`
}

// A Kernel-typed value is an *Engine, so booking through it is reported
// under the Engine entry.
func ViaKernel(k sim.Kernel) {
	k.AtArg(0, nil, nil) // want `direct kernel booking sim\.Engine\.AtArg from internal/charm`
}

// Unguarded methods on kernel types stay callable from anywhere.
func Fine(e *sim.Engine) sim.Time {
	return e.Now()
}
