package sim

import "testing"

// FuzzEngine drives the pooled four-ary-heap Engine and a sorted-slice
// reference (refEngine) with one operation stream decoded from the
// input, three bytes per operation: an opcode and two operands. The
// stream schedules events through both callback forms (At/AtArg and
// Schedule, negative delays included), cancels still-pending events
// (enough of them to trigger heap compaction), and advances time with
// Step and RunUntil deadlines. Every event carries a fan-out: when it
// fires it schedules that many children, some at the same instant, so
// nested scheduling and same-instant ties run throughout. After every
// operation the firing order and Now/Fired/Pending must match the
// reference; a final Run drains both.
func FuzzEngine(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		h := &engineHarness{e: NewEngine(), handles: make(map[int]*Event)}
		ref := &refEngine{}
		check := func(op int) {
			t.Helper()
			if len(h.log) != len(ref.log) {
				t.Fatalf("op %d: fired %d events, reference %d", op, len(h.log), len(ref.log))
			}
			for i := range h.log {
				if h.log[i] != ref.log[i] {
					t.Fatalf("op %d: firing %d = %+v, reference %+v", op, i, h.log[i], ref.log[i])
				}
			}
			if h.e.Now() != ref.now || h.e.Fired() != ref.fired || h.e.Pending() != len(ref.q) {
				t.Fatalf("op %d: now/fired/pending = %v/%d/%d, reference %v/%d/%d",
					op, h.e.Now(), h.e.Fired(), h.e.Pending(), ref.now, ref.fired, len(ref.q))
			}
		}
		for i := 0; i+3 <= len(data); i += 3 {
			a, b := data[i+1], data[i+2]
			kids := b % 4
			switch data[i] % 6 {
			case 0: // At, absolute time from the current clock
				at := h.e.Now() + Time(a%32)
				h.at(at, kids)
				ref.schedule(at, kids)
			case 1: // Schedule, closure form; negative delays book at now
				d := Time(int8(a))
				h.schedule(d, kids)
				if d < 0 {
					d = 0
				}
				ref.schedule(ref.now+d, kids)
			case 2, 5: // cancel a still-pending event (5 cancels it twice)
				if len(ref.q) == 0 {
					break
				}
				id := ref.q[int(a)%len(ref.q)].id
				ev := h.handles[id]
				delete(h.handles, id)
				ev.Cancel()
				if data[i]%6 == 5 {
					ev.Cancel()
				}
				ref.cancel(id)
			case 3: // RunUntil a deadline ahead of the clock
				deadline := h.e.Now() + Time(a%64)
				if got, want := h.e.RunUntil(deadline), ref.runUntil(deadline); got != want {
					t.Fatalf("op %d: RunUntil(%v) fired %d, reference %d", i/3, deadline, got, want)
				}
			case 4:
				if got, want := h.e.Step(), ref.step(); got != want {
					t.Fatalf("op %d: Step = %v, reference %v", i/3, got, want)
				}
			}
			check(i / 3)
		}
		if got, want := h.e.Run(), ref.runUntil(-1); got != want {
			t.Fatalf("final Run fired %d, reference %d", got, want)
		}
		check(len(data) / 3)
	})
}

// firing is one fired event as both engines log it.
type firing struct {
	id int
	at Time
}

// childDelay is the offset at which an event schedules its j-th child:
// zero for every third (same-instant ties with anything already queued
// at that time), otherwise a small spread.
func childDelay(id, j int) Time { return Time((id+j)%3) * 5 }

// engineHarness runs the fuzzed stream on a real Engine. handles holds
// the Event of every still-pending event by id; a handle is dropped when
// its event fires or is cancelled (records recycle after firing).
type engineHarness struct {
	e       *Engine
	handles map[int]*Event
	nextID  int
	log     []firing
}

type fuzzEvent struct {
	h    *engineHarness
	id   int
	kids uint8
}

func (h *engineHarness) newEvent(kids uint8) *fuzzEvent {
	ev := &fuzzEvent{h: h, id: h.nextID, kids: kids}
	h.nextID++
	return ev
}

func (h *engineHarness) at(t Time, kids uint8) {
	ev := h.newEvent(kids)
	h.handles[ev.id] = h.e.AtArg(t, fireFuzzEvent, ev)
}

func (h *engineHarness) schedule(d Time, kids uint8) {
	ev := h.newEvent(kids)
	h.handles[ev.id] = h.e.Schedule(d, func() { fireFuzzEvent(ev) })
}

func fireFuzzEvent(arg any) {
	ev := arg.(*fuzzEvent)
	h := ev.h
	delete(h.handles, ev.id)
	h.log = append(h.log, firing{id: ev.id, at: h.e.Now()})
	for j := 0; j < int(ev.kids); j++ {
		h.at(h.e.Now()+childDelay(ev.id, j), ev.kids-1)
	}
}

// refEngine is the reference scheduler: pending events in a slice kept
// sorted by (time, sequence), popped from the front.
type refEngine struct {
	now    Time
	seq    uint64
	fired  uint64
	nextID int
	q      []refEvent
	log    []firing
}

type refEvent struct {
	at   Time
	seq  uint64
	id   int
	kids uint8
}

func (r *refEngine) schedule(at Time, kids uint8) {
	ev := refEvent{at: at, seq: r.seq, id: r.nextID, kids: kids}
	r.seq++
	r.nextID++
	// Sequences only grow, so ev sorts after every queued event at its time.
	i := len(r.q)
	for i > 0 && r.q[i-1].at > at {
		i--
	}
	r.q = append(r.q, refEvent{})
	copy(r.q[i+1:], r.q[i:])
	r.q[i] = ev
}

func (r *refEngine) cancel(id int) {
	for i := range r.q {
		if r.q[i].id == id {
			r.q = append(r.q[:i], r.q[i+1:]...)
			return
		}
	}
}

func (r *refEngine) step() bool {
	if len(r.q) == 0 {
		return false
	}
	ev := r.q[0]
	r.q = r.q[1:]
	r.now = ev.at
	r.fired++
	r.log = append(r.log, firing{id: ev.id, at: ev.at})
	for j := 0; j < int(ev.kids); j++ {
		r.schedule(r.now+childDelay(ev.id, j), ev.kids-1)
	}
	return true
}

// runUntil fires every event at or before deadline (all of them when
// deadline is negative) and advances the clock to the deadline.
func (r *refEngine) runUntil(deadline Time) uint64 {
	start := r.fired
	for len(r.q) > 0 && (deadline < 0 || r.q[0].at <= deadline) {
		r.step()
	}
	if r.now < deadline {
		r.now = deadline
	}
	return r.fired - start
}
