package sim

import (
	"testing"
)

func stripedShards(nodes, shards int) []int32 {
	m := make([]int32, nodes)
	for n := range m {
		m[n] = int32(n * shards / nodes)
	}
	return m
}

// haloCell is a node of the parallel-window test workload: a fixed-cadence
// halo exchange on a ring where state flows through values, never times.
type haloCell struct {
	sh    *Shard
	cells []*haloCell
	node  int
	steps int
	value uint64
	recv  uint64
	inbox [2]uint64 // reused per-edge transfer records (left, right)
	la    Time
}

const haloStep = Time(1000)

func (c *haloCell) step(any) {
	c.value = c.value*6364136223846793005 + c.recv + 1442695040888963407
	c.recv = 0
	now := c.sh.Now()
	n := len(c.cells)
	left, right := c.cells[(c.node+n-1)%n], c.cells[(c.node+1)%n]
	left.inbox[1] = c.value
	right.inbox[0] = c.value
	c.sh.Send(left.node, now+c.la, left.arriveRight, nil)
	c.sh.Send(right.node, now+c.la, right.arriveLeft, nil)
	if c.steps--; c.steps > 0 {
		c.sh.AtArg(now+haloStep, c.step, nil)
	}
}

func (c *haloCell) arriveLeft(any)  { c.recv += c.inbox[0] }
func (c *haloCell) arriveRight(any) { c.recv += c.inbox[1] }

func runHalo(shards int, parallel bool) uint64 {
	const nodes, steps = 32, 20
	la := Time(405)
	se := NewParallelEngine(shards, stripedShards(nodes, shards), la)
	cells := make([]*haloCell, nodes)
	for n := range cells {
		cells[n] = &haloCell{
			sh: se.ShardHandle(se.ShardOf(n)), node: n,
			steps: steps, value: uint64(n)*0x9e3779b9 + 1, la: la,
		}
	}
	for _, c := range cells {
		c.cells = cells
		c.sh.AtArg(0, c.step, nil)
	}
	if parallel {
		se.RunParallel()
	} else {
		se.Run()
	}
	var sum uint64
	for _, c := range cells {
		sum += c.value * 31
	}
	return sum
}

// TestParallelWindowsShardInvariant: the conservative-window executor
// produces the same result at shards 1, 2, 4 — and the same result the
// lockstep executor produces on the identical workload.
func TestParallelWindowsShardInvariant(t *testing.T) {
	want := runHalo(1, false)
	for _, shards := range []int{1, 2, 4} {
		if got := runHalo(shards, false); got != want {
			t.Fatalf("lockstep shards=%d: %#x, want %#x", shards, got, want)
		}
		if got := runHalo(shards, true); got != want {
			t.Fatalf("parallel shards=%d: %#x, want %#x", shards, got, want)
		}
	}
}

// TestCrossShardLookaheadViolationPanics: a send that would land inside
// the current window must panic rather than silently break determinism.
func TestCrossShardLookaheadViolationPanics(t *testing.T) {
	se := NewParallelEngine(2, []int32{0, 1}, 500)
	sh := se.ShardHandle(0)
	se.running, se.windowEnd = true, 500 // what a worker would observe mid-window
	defer func() {
		if recover() == nil {
			t.Fatal("lookahead violation did not panic")
		}
	}()
	sh.Send(1, 10, func(any) {}, nil)
}
