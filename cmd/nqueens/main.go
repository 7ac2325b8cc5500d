// Command nqueens runs the N-Queens state-space search on the simulated
// machine with either machine layer, printing solutions (real mode) and
// virtual-time performance.
//
// Usage:
//
//	nqueens -n 13 -threshold 5 -cores 96 -layer ugni
package main

import (
	"flag"
	"fmt"
	"os"

	"charmgo"
	"charmgo/internal/ssse"
	"charmgo/internal/stats"
)

func main() {
	var (
		n         = flag.Int("n", 13, "board size")
		threshold = flag.Int("threshold", 5, "parallel depth (grain-size control)")
		cores     = flag.Int("cores", 48, "total cores")
		layer     = flag.String("layer", "ugni", "machine layer: ugni or mpi")
		chunk     = flag.Int("chunk", 1, "task bundling factor (ParSSSE grain)")
		synthetic = flag.Bool("synthetic", false, "force synthetic subtree costs")
		seed      = flag.Uint64("seed", 1, "placement seed")
	)
	flag.Parse()
	if err := validate(*n, *threshold, *cores, *layer); err != nil {
		fmt.Fprintln(os.Stderr, "nqueens:", err)
		os.Exit(2)
	}

	nodes := (*cores + 23) / 24
	for *cores%nodes != 0 {
		nodes++
	}
	m := charmgo.NewMachine(charmgo.MachineConfig{
		Nodes:        nodes,
		CoresPerNode: *cores / nodes,
		Layer:        charmgo.LayerKind(*layer),
	})
	res := ssse.Run(m, ssse.Config{
		N: *n, Threshold: *threshold, Seed: *seed,
		ChunkSize: *chunk, Synthetic: *synthetic,
	})

	fmt.Printf("%d-queens, threshold %d, %d cores, %s layer\n", *n, *threshold, *cores, *layer)
	if res.Solutions > 0 {
		if want := ssse.Solutions[*n]; want != 0 && res.Solutions != want {
			fmt.Fprintf(os.Stderr, "WRONG ANSWER: %d solutions, want %d\n", res.Solutions, want)
			os.Exit(1)
		}
		fmt.Printf("solutions: %d (verified)\n", res.Solutions)
	} else {
		fmt.Printf("solutions: (synthetic-cost mode, not counted)\n")
	}
	fmt.Printf("tasks: %d  nodes: %d\n", res.Tasks, res.Nodes)
	fmt.Printf("virtual time: %v\n", res.Elapsed)
	layerStats := m.Layer().Stats()
	for _, k := range stats.SortedKeys(layerStats) {
		fmt.Printf("  layer %s = %d\n", k, layerStats[k])
	}
}

// validate rejects flag values the machine or the search cannot run.
func validate(n, threshold, cores int, layer string) error {
	if cores < 1 {
		return fmt.Errorf("-cores %d: need at least one core", cores)
	}
	if k := charmgo.LayerKind(layer); k != charmgo.LayerUGNI && k != charmgo.LayerMPI {
		return fmt.Errorf("-layer %q: want %s or %s", layer, charmgo.LayerUGNI, charmgo.LayerMPI)
	}
	if threshold < 1 || threshold > n {
		return fmt.Errorf("-threshold %d: want 1 <= threshold <= n (%d)", threshold, n)
	}
	return nil
}
