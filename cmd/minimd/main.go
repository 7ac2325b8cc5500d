// Command minimd runs the mini-NAMD molecular-dynamics proxy (PME every
// step) on the simulated machine and reports ms/step — the paper's
// Table II / Figure 13 metric.
//
// Usage:
//
//	minimd -system apoa1 -cores 240 -layer ugni -steps 5 -lb
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"charmgo"
	"charmgo/internal/md"
)

func main() {
	var (
		system = flag.String("system", "apoa1", "molecular system: iapp, dhfr, apoa1")
		cores  = flag.Int("cores", 48, "total cores")
		layer  = flag.String("layer", "ugni", "machine layer: ugni or mpi")
		steps  = flag.Int("steps", 5, "measured steps")
		warmup = flag.Int("warmup", 2, "warmup steps")
		lb     = flag.Bool("lb", false, "greedy load balancing after warmup")
		seed   = flag.Uint64("seed", 1, "decomposition seed")
	)
	flag.Parse()
	if err := validate(*cores, *layer); err != nil {
		fmt.Fprintln(os.Stderr, "minimd:", err)
		os.Exit(2)
	}

	var sys md.System
	switch strings.ToLower(*system) {
	case "iapp":
		sys = md.IAPP
	case "dhfr":
		sys = md.DHFR
	case "apoa1":
		sys = md.ApoA1
	default:
		fmt.Fprintf(os.Stderr, "unknown system %q\n", *system)
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
	res := md.Run(m, md.Config{
		System: sys, Steps: *steps, Warmup: *warmup, LB: *lb, Seed: *seed,
	})

	fmt.Printf("%s (%d atoms) on %d cores, %s layer\n", sys.Name, sys.Atoms, *cores, *layer)
	fmt.Printf("%s\n", res)
	for i, dt := range res.StepTimes {
		fmt.Printf("  step %d: %v\n", i, dt)
	}
	if res.Migrations > 0 {
		fmt.Printf("load balancer migrated %d computes\n", res.Migrations)
	}
}

// validate rejects flag values the machine cannot be built from.
func validate(cores int, layer string) error {
	if cores < 1 {
		return fmt.Errorf("-cores %d: need at least one core", cores)
	}
	if k := charmgo.LayerKind(layer); k != charmgo.LayerUGNI && k != charmgo.LayerMPI {
		return fmt.Errorf("-layer %q: want %s or %s", layer, charmgo.LayerUGNI, charmgo.LayerMPI)
	}
	return nil
}
