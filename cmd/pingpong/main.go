// Command pingpong measures one-way message latency across every system in
// the stack (pure uGNI, pure MPI, CHARM++ over both machine layers) for a
// range of message sizes — the microbenchmark behind the paper's Figures
// 1, 6, 8 and 9(a).
//
// Usage:
//
//	pingpong -min 8 -max 4194304
package main

import (
	"flag"
	"fmt"
	"os"

	"charmgo"
	"charmgo/internal/bench"
	"charmgo/internal/stats"
)

func main() {
	var (
		minSize = flag.Int("min", 8, "smallest message size (bytes)")
		maxSize = flag.Int("max", 4<<20, "largest message size (bytes)")
		intra   = flag.Bool("intra", false, "node-local peers instead of inter-node")
	)
	flag.Parse()
	if err := validate(*minSize, *maxSize); err != nil {
		fmt.Fprintln(os.Stderr, "pingpong:", err)
		os.Exit(2)
	}

	t := stats.NewTable("one-way latency (us)",
		"size", "pure uGNI", "pure MPI", "charm/ugni", "charm/mpi")
	for size := *minSize; size <= *maxSize; size *= 2 {
		if *intra {
			t.Add(stats.SizeLabel(size),
				"-",
				bench.PureMPIOneWay(size, true, true).Micros(),
				bench.CharmPingPong{Layer: charmgo.LayerUGNI, Size: size, Intra: true}.OneWay().Micros(),
				bench.CharmPingPong{Layer: charmgo.LayerMPI, Size: size, Intra: true}.OneWay().Micros(),
			)
			continue
		}
		t.Add(stats.SizeLabel(size),
			bench.PureUGNIOneWay(size).Micros(),
			bench.PureMPIOneWay(size, true, false).Micros(),
			bench.CharmPingPong{Layer: charmgo.LayerUGNI, Size: size}.OneWay().Micros(),
			bench.CharmPingPong{Layer: charmgo.LayerMPI, Size: size}.OneWay().Micros(),
		)
	}
	fmt.Println(t.String())
}

// validate rejects a size range the doubling sweep cannot walk.
func validate(minSize, maxSize int) error {
	if minSize < 1 || minSize > maxSize {
		return fmt.Errorf("-min %d -max %d: want 1 <= min <= max", minSize, maxSize)
	}
	return nil
}
