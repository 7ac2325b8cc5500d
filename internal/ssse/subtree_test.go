package ssse

import (
	"sync"
	"testing"

	"charmgo"
)

// sweepPoint is one run of a sweep: a board, a threshold and a core count.
type sweepPoint struct{ n, threshold, cores int }

func runPoint(p sweepPoint) Result {
	m := charmgo.NewMachine(charmgo.MachineConfig{Nodes: p.cores / 4, CoresPerNode: 4, Layer: charmgo.LayerUGNI})
	return Run(m, Config{N: p.n, Threshold: p.threshold, Seed: 11, ChunkSize: 2})
}

func coldTable() {
	subtrees.Lock()
	clear(subtrees.m)
	subtrees.n, subtrees.row = 0, 0
	subtrees.Unlock()
}

// TestSubtreeTableDeterminism: a run's Result (solutions, tasks, nodes and
// virtual time) does not depend on the subtree table's contents. The same
// run must come out identical on a cold table, on a warm one, and after the
// table switched generations (thresholds 4/5/4 at 12 queens); its
// solutions and nodes must also equal the plain sequential solve of the
// whole board, which never touches the table.
func TestSubtreeTableDeterminism(t *testing.T) {
	p4 := sweepPoint{12, 4, 16}
	p5 := sweepPoint{12, 5, 16}
	coldTable()
	cold4 := runPoint(p4)
	coldTable()
	cold5 := runPoint(p5)

	sol, nodes := Count(12)
	for name, r := range map[string]Result{"threshold 4": cold4, "threshold 5": cold5} {
		if r.Solutions != sol || r.Nodes != nodes {
			t.Fatalf("%s: %d solutions / %d nodes, sequential solve %d / %d", name, r.Solutions, r.Nodes, sol, nodes)
		}
	}
	for i, c := range []struct {
		p    sweepPoint
		want Result
	}{
		{p5, cold5}, // warm
		{p4, cold4}, // generation switch 5 -> 4
		{p4, cold4}, // warm
		{p5, cold5}, // generation switch 4 -> 5
		{p4, cold4}, // generation switch 5 -> 4
	} {
		if got := runPoint(c.p); got != c.want {
			t.Fatalf("run %d (%+v): %+v, cold table gave %+v", i, c.p, got, c.want)
		}
	}
}

// TestSubtreeTableConcurrentSweeps runs two sweeps over different
// (N, threshold) generations on two goroutines at once, so they keep
// switching the shared table under each other (run it under -race). Every
// result must equal the same point run alone.
func TestSubtreeTableConcurrentSweeps(t *testing.T) {
	sweeps := [2][]sweepPoint{
		{{12, 4, 8}, {12, 4, 16}, {12, 4, 32}},
		{{11, 5, 8}, {11, 5, 16}, {11, 5, 32}},
	}
	var want, got [2][]Result
	for s, sweep := range sweeps {
		for _, p := range sweep {
			coldTable()
			want[s] = append(want[s], runPoint(p))
		}
	}
	var wg sync.WaitGroup
	for s, sweep := range sweeps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range sweep {
				got[s] = append(got[s], runPoint(p))
			}
		}()
	}
	wg.Wait()
	for s, sweep := range sweeps {
		for i, p := range sweep {
			if got[s][i] != want[s][i] {
				t.Errorf("%+v concurrently: %+v, alone %+v", p, got[s][i], want[s][i])
			}
		}
	}
}
