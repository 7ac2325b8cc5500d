// Package sim is a bookviakernel fixture: a stub of the kernel surface
// guarded by the analyzer. Signatures are simplified; only receiver types
// and method names matter to the check.
package sim

type Time int64

type Engine struct{}

func (e *Engine) Schedule(t Time, f func()) {}
func (e *Engine) At(t Time, f func())       {}
func (e *Engine) Now() Time                 { return 0 }

func (e *Engine) AtArg(t Time, f func(any), arg any) {}

// Kernel names the one kernel, as the real package does.
type Kernel = *Engine

type GapResource struct{}

func (r *GapResource) Acquire(t, d Time) Time { return t }
func (r *GapResource) Peek(t Time) Time       { return t }

type PEResource struct{}

func (r *PEResource) Acquire(t, d Time) Time { return t }

type NICEngine interface {
	Transfer(size int)
	Get(size int)
	Enqueue(size int)
}
