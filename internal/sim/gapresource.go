package sim

// GapResource models shared hardware booked with a gap-filling discipline:
// bookings are kept as a set of disjoint busy intervals and a new request
// fills the earliest gap at or after its ready time. This is right for
// shared network hardware (NIC engines, torus links), where posts arrive
// in event order, not ready order: a transfer whose sender's PE-local
// clock ran far ahead must not block an independent, earlier-ready
// transfer posted a moment later.
//
// The interval set is one flat run, buf[head:], sorted, disjoint and
// non-adjacent. A booking binary-searches the first interval ending after
// its ready time, scans forward to the first gap wide enough and inserts
// or merges in place. On loaded torus links a run holds one to two
// hundred live intervals and a gap-filling booking lands within about a
// hundred of the tail, where a contiguous scan and copy beat a balanced
// tree. The cost is O(k) in the intervals between the ready time and the
// chosen gap: a backlog of thousands of live intervals with no hole wide
// enough makes every booking scan all of them. Results equal a linear
// sorted-slice implementation: the (earliest gap >= ready time) answer is
// unique.
//
// Every gap resource has a clock (the owning engine's Now); no request
// may ask for time before now, so an interval that ended strictly before
// now can neither hold a gap nor merge with a new booking and is pruned
// exactly. An interval ending at now is kept: a booking starting at now
// still merges with it. Memory is bounded by in-flight bookings with no
// lossy cap.
type GapResource struct {
	name      Name
	clock     func() Time
	buf       []span // buf[head:] are the live intervals; buf[:head] are dead
	head      int
	busyTotal Time
	acquires  uint64
	freeAt    Time // end of the last interval ever booked (pruning never lowers it)
	probe     Probe
}

// span is one busy interval [s, e).
type span struct{ s, e Time }

// NewGapResource returns an idle gap-filling resource. The clock is
// mandatory: it is what allows exact pruning of dead intervals, and a
// resource without one would either leak or silently drop
// potentially-live bookings past an arbitrary cap.
func NewGapResource(name Name, clock func() Time) *GapResource {
	r := &GapResource{}
	InitGapResource(r, name, clock)
	return r
}

// InitGapResource initializes r in place with NewGapResource semantics,
// for callers that slab-allocate resource arrays (one allocation for a
// whole network's links) instead of one heap object per resource.
func InitGapResource(r *GapResource, name Name, clock func() Time) {
	if clock == nil {
		panic("sim: NewGapResource requires a clock for exact dead-interval pruning")
	}
	*r = GapResource{name: name, clock: clock}
}

// SetProbe installs p to observe every booking (nil disables).
func (r *GapResource) SetProbe(p Probe) { r.probe = p }

// Name reports the diagnostic name given at construction.
func (r *GapResource) Name() string { return r.name.String() }

// Acquire books the resource for dur units starting no earlier than at and
// returns the booked interval [start, end): the earliest gap at or after
// at that fits dur.
func (r *GapResource) Acquire(at, dur Time) (start, end Time) {
	if dur < 0 {
		dur = 0
	}
	r.acquires++
	r.busyTotal += dur
	now := r.clock()
	for r.head < len(r.buf) && r.buf[r.head].e < now {
		r.head++
	}
	if r.head == len(r.buf) {
		r.buf, r.head = r.buf[:0], 0
	}
	i, s := r.slot(at, dur)
	start, end = s, s+dur
	if dur > 0 {
		r.insert(i, start, end)
		if end > r.freeAt {
			r.freeAt = end
		}
	}
	if r.probe != nil {
		r.probe.Booking(r, at, start, end)
	}
	return start, end
}

// Peek reports where Acquire(at, dur) would book, without booking.
func (r *GapResource) Peek(at, dur Time) (start, end Time) {
	if dur < 0 {
		dur = 0
	}
	_, s := r.slot(at, dur)
	return s, s + dur
}

// slot finds the earliest gap at or after at that fits dur. It returns
// the gap's start and the index of the first interval after it (len(buf)
// when the booking goes past every interval).
func (r *GapResource) slot(at, dur Time) (int, Time) {
	buf := r.buf
	lo, hi := r.head, len(buf)
	if hi > lo && buf[hi-1].e <= at {
		return hi, at // past the tail: the common append
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if buf[m].e > at {
			hi = m
		} else {
			lo = m + 1
		}
	}
	pos := at
	for _, v := range buf[lo:] {
		if v.s-pos >= dur {
			break
		}
		pos = v.e // ends are sorted and every one from lo on is > at
		lo++
	}
	return lo, pos
}

// insert adds [s, e), which lies in the gap just before buf[i], merging
// touching neighbours so the run stays disjoint and non-adjacent.
func (r *GapResource) insert(i int, s, e Time) {
	left := i > r.head && r.buf[i-1].e == s
	right := i < len(r.buf) && r.buf[i].s == e
	switch {
	case left && right:
		r.buf[i-1].e = r.buf[i].e
		r.buf = r.buf[:i+copy(r.buf[i:], r.buf[i+1:])]
	case left:
		r.buf[i-1].e = e
	case right:
		r.buf[i].s = s
	default:
		if len(r.buf) == cap(r.buf) {
			// Full: move the live run to the front over the dead prefix,
			// or into a larger buffer when nothing is dead.
			live, dst := r.buf[r.head:], r.buf
			if r.head == 0 {
				//simlint:allow hotpathalloc -- interval run growth: the buffer doubles up to the resource's peak live interval count and steady state reuses it (per-GapResource, so per-NIC or per-link)
				dst = make([]span, 2*len(live)+4)
			}
			i -= r.head
			r.buf, r.head = dst[:copy(dst, live)], 0
		}
		r.buf = r.buf[:len(r.buf)+1]
		copy(r.buf[i+1:], r.buf[i:])
		r.buf[i] = span{s, e}
	}
}

// Intervals reports how many disjoint busy intervals are currently held
// (diagnostic; dead intervals count until the next Acquire prunes them).
func (r *GapResource) Intervals() int { return len(r.buf) - r.head }

// FreeAt reports the time after which the resource is idle forever given
// current bookings (the end of the last interval). It does not depend on
// how far pruning has gone.
func (r *GapResource) FreeAt() Time { return r.freeAt }

// BusyTotal reports the cumulative booked time.
func (r *GapResource) BusyTotal() Time { return r.busyTotal }

// Acquires reports how many bookings have been made.
func (r *GapResource) Acquires() uint64 { return r.acquires }

// Utilization reports busyTotal / window, clamped to [0, 1]; it is a
// convenience for link-load reporting.
func (r *GapResource) Utilization(window Time) float64 {
	if window <= 0 {
		return 0
	}
	u := float64(r.busyTotal) / float64(window)
	if u > 1 {
		u = 1
	}
	return u
}

// Reset returns the resource to idle and clears statistics.
func (r *GapResource) Reset() {
	r.buf, r.head = r.buf[:0], 0
	r.busyTotal = 0
	r.acquires = 0
	r.freeAt = 0
}
