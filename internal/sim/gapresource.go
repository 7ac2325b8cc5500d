package sim

// GapResource models shared hardware booked with a gap-filling discipline:
// bookings are kept as a set of disjoint busy intervals and a new request
// fills the earliest gap at or after its ready time. This is right for
// shared network hardware (NIC engines, torus links), where posts arrive
// in event order, not ready order: a transfer whose sender's PE-local
// clock ran far ahead must not block an independent, earlier-ready
// transfer posted a moment later.
//
// The interval set is a treap augmented with subtree summaries (earliest
// start/end, latest end, widest internal gap), giving O(log n) insertion
// with neighbour merging and a gap search that skips subtrees which
// cannot contain a fitting hole. Booking results are bit-identical to a
// linear sorted-slice implementation: the (earliest gap >= ready time)
// answer is unique, so only the cost changes.
//
// Every gap resource has a clock (the owning engine's Now); intervals
// wholly in the dead past — no future request may ask for time before
// now — are pruned exactly, so memory is bounded by in-flight bookings
// with no lossy cap.
type GapResource struct {
	name      Name
	clock     func() Time
	root      *gnode
	pool      *gnode // free-list of recycled nodes, linked through l
	prioSeq   uint64
	count     int
	busyTotal Time
	acquires  uint64
	freeAt    Time // end of the last interval ever booked (pruning never lowers it)
	probe     Probe
}

// gnode is one busy interval [s, e) plus treap linkage and subtree
// summaries for the augmented search.
type gnode struct {
	s, e   Time
	prio   uint64
	l, r   *gnode
	minS   Time // earliest interval start in this subtree
	minE   Time // earliest interval end in this subtree
	maxE   Time // latest interval end in this subtree
	maxGap Time // widest gap strictly between intervals of this subtree
}

// NewGapResource returns an idle gap-filling resource. The clock is
// mandatory: it is what allows exact pruning of dead intervals, and a
// resource without one would either leak or (as the old implementation
// did) silently drop potentially-live bookings past an arbitrary cap.
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
	if r.root != nil {
		if now := r.clock(); r.root.minE <= now {
			r.root = r.dropDead(r.root, now)
		}
	}
	s, ok, out := findSlot(r.root, at, dur)
	if !ok {
		s = out // no internal gap fits: book right after the last conflict
	}
	start, end = s, s+dur
	if dur > 0 {
		r.insert(start, end)
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
	s, ok, out := findSlot(r.root, at, dur)
	if !ok {
		s = out
	}
	return s, s + dur
}

// findSlot searches n's subtree, in interval order, for the earliest gap
// at or after pos that fits dur. It returns the gap start when found;
// otherwise outPos is the earliest time after every conflicting interval
// seen so far (the caller books there). Subtrees that start before pos
// and contain no gap wide enough are skipped via the maxGap summary.
func findSlot(n *gnode, pos, dur Time) (start Time, found bool, outPos Time) {
	if n == nil {
		return 0, false, pos
	}
	if n.maxE <= pos || (n.minS-pos < dur && n.maxGap < dur) {
		// Nothing in this subtree can fit: it lies entirely before pos
		// (disjoint sorted intervals have sorted ends, so maxE bounds the
		// whole subtree), or neither the gap before its first interval
		// nor any internal gap is wide enough. Skip past it entirely.
		if n.maxE > pos {
			pos = n.maxE
		}
		return 0, false, pos
	}
	if start, found, pos = findSlot(n.l, pos, dur); found {
		return start, true, pos
	}
	if n.s-pos >= dur {
		return pos, true, pos
	}
	if n.e > pos {
		pos = n.e
	}
	return findSlot(n.r, pos, dur)
}

// insert adds [s, e) to the interval set, merging touching neighbours so
// the set stays disjoint and non-adjacent.
func (r *GapResource) insert(s, e Time) {
	if r.root == nil {
		r.root = r.node(s, e)
		return
	}
	if s >= r.root.maxE {
		// Appending past every existing interval: the overwhelmingly
		// common case for busy engines. Touching the rightmost interval
		// extends it in place; otherwise hang a new rightmost node.
		if s == r.root.maxE {
			extendRight(r.root, e)
			return
		}
		r.root = r.insertNode(r.root, r.node(s, e))
		return
	}
	if p := predecessor(r.root, s); p != nil && p.e == s {
		s = p.s
		r.root = r.remove(r.root, p.s)
	}
	if n := exact(r.root, e); n != nil {
		e = n.e
		r.root = r.remove(r.root, n.s)
	}
	r.root = r.insertNode(r.root, r.node(s, e))
}

// extendRight grows the rightmost interval's end to e, refreshing
// summaries on the way back up.
func extendRight(n *gnode, e Time) {
	if n.r != nil {
		extendRight(n.r, e)
	} else {
		n.e = e
	}
	upd(n)
}

// predecessor returns the interval with the greatest start < s, or nil.
func predecessor(n *gnode, s Time) *gnode {
	var best *gnode
	for n != nil {
		if n.s < s {
			best = n
			n = n.r
		} else {
			n = n.l
		}
	}
	return best
}

// exact returns the interval starting exactly at s, or nil.
func exact(n *gnode, s Time) *gnode {
	for n != nil {
		switch {
		case s < n.s:
			n = n.l
		case s > n.s:
			n = n.r
		default:
			return n
		}
	}
	return nil
}

// insertNode places nn (a fresh, summary-initialised node) by treap
// priority: rotations are expressed as a split at nn's key.
func (r *GapResource) insertNode(n, nn *gnode) *gnode {
	if n == nil {
		return nn
	}
	if nn.prio < n.prio {
		nn.l, nn.r = split(n, nn.s)
		upd(nn)
		return nn
	}
	if nn.s < n.s {
		n.l = r.insertNode(n.l, nn)
	} else {
		n.r = r.insertNode(n.r, nn)
	}
	upd(n)
	return n
}

// split partitions n's subtree into starts < key and starts >= key.
func split(n *gnode, key Time) (l, rr *gnode) {
	if n == nil {
		return nil, nil
	}
	if n.s < key {
		n.r, rr = split(n.r, key)
		upd(n)
		return n, rr
	}
	l, n.l = split(n.l, key)
	upd(n)
	return l, n
}

// remove deletes the interval starting at s (which must exist).
func (r *GapResource) remove(n *gnode, s Time) *gnode {
	if n == nil {
		panic("sim: gap interval missing")
	}
	switch {
	case s < n.s:
		n.l = r.remove(n.l, s)
	case s > n.s:
		n.r = r.remove(n.r, s)
	default:
		res := merge(n.l, n.r)
		r.release(n)
		return res
	}
	upd(n)
	return n
}

// merge joins two subtrees where every start in a precedes every start
// in b.
func merge(a, b *gnode) *gnode {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.prio < b.prio {
		a.r = merge(a.r, b)
		upd(a)
		return a
	}
	b.l = merge(a, b.l)
	upd(b)
	return b
}

// dropDead removes every interval ending at or before now. The minE
// summary prunes clean subtrees without visiting them.
func (r *GapResource) dropDead(n *gnode, now Time) *gnode {
	if n == nil || n.minE > now {
		return n
	}
	n.l = r.dropDead(n.l, now)
	if n.e <= now {
		right := r.dropDead(n.r, now)
		r.release(n)
		return right
	}
	upd(n)
	return n
}

// node takes a pooled record (or allocates) for interval [s, e). The
// treap priority is a deterministic hash of an insertion counter, so tree
// shape — and therefore cost, but never results — is reproducible.
func (r *GapResource) node(s, e Time) *gnode {
	n := r.pool
	if n != nil {
		r.pool = n.l
	} else {
		//simlint:allow hotpathalloc -- treap node pool miss path: allocates only while the pool is empty; steady state recycles (the pool is per-GapResource, which is per-NIC and so shard-local in the parallel window)
		n = &gnode{}
	}
	r.prioSeq++
	*n = gnode{s: s, e: e, prio: Mix(r.prioSeq)}
	upd(n)
	r.count++
	return n
}

// release returns a node to the pool.
func (r *GapResource) release(n *gnode) {
	n.r = nil
	n.l = r.pool
	r.pool = n
	r.count--
}

// upd recomputes n's subtree summaries from its children. In-order starts
// are sorted and intervals disjoint, so ends are sorted too: minS/minE
// come from the leftmost path, maxE from the rightmost.
func upd(n *gnode) {
	if n.l != nil {
		n.minS, n.minE = n.l.minS, n.l.minE
	} else {
		n.minS, n.minE = n.s, n.e
	}
	if n.r != nil {
		n.maxE = n.r.maxE
	} else {
		n.maxE = n.e
	}
	g := Time(0)
	if n.l != nil {
		g = n.l.maxGap
		if d := n.s - n.l.maxE; d > g {
			g = d
		}
	}
	if n.r != nil {
		if n.r.maxGap > g {
			g = n.r.maxGap
		}
		if d := n.r.minS - n.e; d > g {
			g = d
		}
	}
	n.maxGap = g
}

// Intervals reports how many disjoint busy intervals are currently held
// (diagnostic; dead intervals count until the next Acquire prunes them).
func (r *GapResource) Intervals() int { return r.count }

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
	for r.root != nil {
		r.root = r.remove(r.root, r.root.s)
	}
	r.busyTotal = 0
	r.acquires = 0
	r.freeAt = 0
}
