package sim

import "fmt"

// Event is a handle to a scheduled callback, usable to Cancel it before it
// fires. Event records are pooled: once an event has fired (or its
// cancellation has been reclaimed), the record is reused by a later
// At/Schedule call. Holding a handle to a *pending* event is always safe;
// a handle retained past its firing must not be used again.
type Event struct {
	eng   *Engine
	at    Time
	fn    func()
	afn   func(any) // closure-free form: afn(arg) fires instead of fn()
	arg   any
	state uint8
	next  *Event // free-list link while pooled
}

// Event states. A record cycles free -> pending -> (fired|cancelled) -> free.
const (
	evFree uint8 = iota
	evPending
	evCancelled
)

// Time reports when the event is scheduled to fire.
func (ev *Event) Time() Time { return ev.at }

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. Cancellation is lazy: the heap slot
// stays until popped or until enough cancellations accumulate to trigger
// compaction (cancelled > live/2), so a cancel storm cannot leak memory.
func (ev *Event) Cancel() {
	if ev.state != evPending {
		return
	}
	ev.state = evCancelled
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	e := ev.eng
	e.live--
	e.cancelled++
	if e.cancelled > e.live/2 {
		e.compact()
	}
}

// entry is one heap slot: the ordering keys are inlined so comparisons
// never chase the record pointer.
type entry struct {
	at  Time
	seq uint64
	ev  *Event
}

// Engine is a deterministic discrete-event scheduler: a virtual clock and
// a four-ary min-heap of entries ordered by (time, sequence). Events
// scheduled for the same instant fire in scheduling order, which makes
// every simulation reproducible regardless of map iteration or goroutine
// scheduling (everything runs on the caller's goroutine).
//
// The heap holds value entries (24 bytes) over pooled Event records, so
// steady-state scheduling allocates nothing and sift operations stay in
// cache; the four-ary layout halves tree depth versus a binary heap,
// which favors the pop-heavy DES workload.
type Engine struct {
	now       Time
	lastAt    Time // timestamp of the most recently fired event (RunUntil moves now past it)
	heap      []entry
	seq       uint64
	fired     uint64
	live      int // pending (non-cancelled) events; Pending() is O(1)
	cancelled int // cancelled events still occupying heap slots
	free      *Event
	probe     Probe
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// SetProbe installs p to observe every fired event. A nil probe (the
// default) costs one predictable branch per event.
func (e *Engine) SetProbe(p Probe) { e.probe = p }

// Probe reports the installed probe, if any, so resources created after
// the engine can inherit it.
func (e *Engine) Probe() Probe { return e.probe }

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports the number of scheduled, uncancelled events.
func (e *Engine) Pending() int { return e.live }

// Schedule runs fn after delay units of virtual time. A negative delay is
// treated as zero. Events scheduled for the same instant fire in the order
// they were scheduled.
//
//simlint:hotpath
func (e *Engine) Schedule(delay Time, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t. Scheduling in the past is an error:
// the simulation's causality would break silently, so it panics loudly.
//
//simlint:hotpath
func (e *Engine) At(t Time, fn func()) *Event {
	ev := e.acquire(t)
	ev.fn = fn
	return ev
}

// ScheduleArg is Schedule for the closure-free form: fn(arg) runs after
// delay units of virtual time.
//
//simlint:hotpath
func (e *Engine) ScheduleArg(delay Time, fn func(any), arg any) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.AtArg(e.now+delay, fn, arg)
}

// AtArg runs fn(arg) at absolute virtual time t. This is the closure-free
// scheduling form: with fn a package-level function and arg a pointer into
// caller-owned (typically pooled) state, scheduling allocates nothing —
// the callback pair lives inside the pooled Event record.
//
//simlint:hotpath
func (e *Engine) AtArg(t Time, fn func(any), arg any) *Event {
	ev := e.acquire(t)
	ev.afn = fn
	ev.arg = arg
	return ev
}

// acquire pops a pooled record (or allocates the pool's next one), books it
// at t, and pushes its heap entry. The caller sets exactly one of fn/afn.
func (e *Engine) acquire(t Time) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.next = nil
	} else {
		//simlint:allow hotpathalloc -- event pool miss path: allocates only while the free list is empty; steady state recycles (the list is per-Engine, and an Engine runs on one goroutine, so concurrent bench point workers never share a pool)
		ev = &Event{eng: e}
	}
	ev.at = t
	ev.state = evPending
	e.push(entry{at: t, seq: e.seq, ev: ev})
	e.seq++
	e.live++
	return ev
}

// release returns a record to the pool.
func (e *Engine) release(ev *Event) {
	ev.state = evFree
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	ev.next = e.free
	e.free = ev
}

// Step fires the single next event. It reports false when no events remain.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		en := e.popTop()
		ev := en.ev
		if ev.state == evCancelled {
			e.cancelled--
			e.release(ev)
			continue
		}
		fn, afn, arg := ev.fn, ev.afn, ev.arg
		// Release before running: the callback routinely schedules a
		// follow-up, and reusing this record immediately is what keeps the
		// steady state allocation-free.
		e.release(ev)
		e.live--
		e.now = en.at
		e.lastAt = en.at
		e.fired++
		if e.probe != nil {
			e.probe.EventFired(e.now, e.live)
		}
		if afn != nil {
			afn(arg)
		} else {
			fn()
		}
		return true
	}
	return false
}

// Run fires events until none remain and returns the number fired.
func (e *Engine) Run() uint64 {
	start := e.fired
	for e.Step() {
	}
	return e.fired - start
}

// RunUntil fires events with timestamps <= deadline, then advances the clock
// to the deadline (if the clock has not already passed it). It returns the
// number of events fired.
func (e *Engine) RunUntil(deadline Time) uint64 {
	start := e.fired
	for len(e.heap) > 0 {
		top := &e.heap[0]
		if top.ev.state == evCancelled {
			en := e.popTop()
			e.cancelled--
			e.release(en.ev)
			continue
		}
		if top.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.fired - start
}

// compact evicts cancelled entries and re-heapifies. Rebuilding with
// Floyd's algorithm is O(n) and the (time, sequence) total order fully
// determines pop order, so determinism is unaffected.
func (e *Engine) compact() {
	h := e.heap
	w := 0
	for _, en := range h {
		if en.ev.state == evCancelled {
			e.release(en.ev)
			continue
		}
		h[w] = en
		w++
	}
	for i := w; i < len(h); i++ {
		h[i] = entry{}
	}
	e.heap = h[:w]
	e.cancelled = 0
	for i := (w - 2) >> 2; i >= 0; i-- {
		e.siftDown(e.heap[i], i)
	}
}

// push appends en and sifts it up, holding en aside and sliding parents
// down so en is written once at its final slot.
func (e *Engine) push(en entry) {
	e.heap = append(e.heap, entry{})
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if h[p].at < en.at || (h[p].at == en.at && h[p].seq < en.seq) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = en
}

// popTop removes and returns the minimum entry.
func (e *Engine) popTop() entry {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = entry{}
	e.heap = h[:n]
	if n > 0 {
		e.siftDown(last, 0)
	}
	return top
}

// siftDown places en into the heap starting at slot i, sliding smaller
// children up past it.
func (e *Engine) siftDown(en entry, i int) {
	h := e.heap
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if h[j].at < h[m].at || (h[j].at == h[m].at && h[j].seq < h[m].seq) {
				m = j
			}
		}
		if en.at < h[m].at || (en.at == h[m].at && en.seq < h[m].seq) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = en
}
