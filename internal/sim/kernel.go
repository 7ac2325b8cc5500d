package sim

// Kernel is the scheduling surface the network and machine layers build
// on. A charmgo machine always runs on the flat Engine; the gemini network
// also accepts a ShardedEngine, which drives the parallel-window halo
// workload (DESIGN.md §2.3).
type Kernel interface {
	// Now reports the current virtual time.
	Now() Time
	// Fired reports how many events have executed so far.
	Fired() uint64
	// Pending reports the number of scheduled, uncancelled events.
	Pending() int

	// Schedule runs fn after delay units of virtual time.
	Schedule(delay Time, fn func()) *Event
	// ScheduleArg is the closure-free Schedule form.
	ScheduleArg(delay Time, fn func(any), arg any) *Event
	// At runs fn at absolute virtual time t.
	At(t Time, fn func()) *Event
	// AtArg is the closure-free At form.
	AtArg(t Time, fn func(any), arg any) *Event

	// Step fires the single next event; false when none remain.
	Step() bool
	// Run fires events until none remain and returns the number fired.
	Run() uint64
	// RunUntil fires events with timestamps <= deadline, then advances the
	// clock to the deadline.
	RunUntil(deadline Time) uint64
	// RunFor is RunUntil(Now()+d).
	RunFor(d Time) uint64

	// SetProbe installs p to observe every fired event.
	SetProbe(p Probe)
	// Probe reports the installed probe, if any.
	Probe() Probe
}

var (
	_ Kernel = (*Engine)(nil)
	_ Kernel = (*ShardedEngine)(nil)
)
