// One testing.B benchmark per paper table/figure. Each benchmark runs its
// experiment in Quick mode (reduced axes, seconds of wall time) and logs
// the reproduced series; the full-axis runs are produced by
// cmd/benchharness (see EXPERIMENTS.md for recorded full-scale output).
//
// The benchmarks measure wall-clock cost of regenerating each experiment;
// the scientific output is the virtual-time tables they log.
package charmgo_test

import (
	"fmt"
	"testing"

	"charmgo/internal/bench"
)

// runExperiment executes one experiment per iteration and logs its tables
// once.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	opts := bench.Options{Quick: true, Seed: 1}
	logged := false
	for b.Loop() {
		tables := e.Run(opts)
		if !logged {
			logged = true
			for _, t := range tables {
				b.Log("\n" + t.String())
			}
		}
	}
}

// BenchmarkFig1 regenerates Figure 1 (uGNI vs MPI vs MPI-based CHARM++
// ping-pong latency).
func BenchmarkFig1(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig4 regenerates Figure 4 (FMA/BTE Put/Get latency).
func BenchmarkFig4(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig6 regenerates Figure 6 (initial uGNI layer vs MPI-based).
func BenchmarkFig6(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig8a regenerates Figure 8(a) (persistent messages).
func BenchmarkFig8a(b *testing.B) { runExperiment(b, "fig8a") }

// BenchmarkFig8b regenerates Figure 8(b) (memory pool).
func BenchmarkFig8b(b *testing.B) { runExperiment(b, "fig8b") }

// BenchmarkFig8c regenerates Figure 8(c) (intra-node transports).
func BenchmarkFig8c(b *testing.B) { runExperiment(b, "fig8c") }

// BenchmarkFig9a regenerates Figure 9(a) (latency, all five systems).
func BenchmarkFig9a(b *testing.B) { runExperiment(b, "fig9a") }

// BenchmarkFig9aWallClock measures the wall-clock cost of regenerating the
// full-axis Figure 9(a) (8B-4MB, all five systems): the simulation kernel's
// end-to-end speed benchmark. The virtual-time output is identical to
// `cmd/benchharness -exp fig9a`; only wall time is under test here.
func BenchmarkFig9aWallClock(b *testing.B) {
	e, ok := bench.Find("fig9a")
	if !ok {
		b.Fatal("fig9a experiment missing")
	}
	opts := bench.Options{Quick: false, Seed: 1}
	b.ReportAllocs()
	for b.Loop() {
		e.Run(opts)
	}
}

// runWorkersWallClock benchmarks one full-axis experiment with 1 and 4
// point fan-out workers (each simulation's results stay bit-identical;
// see internal/bench/parallel.go and DESIGN.md §2.3).
func runWorkersWallClock(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := bench.Options{Quick: false, Seed: 1, Workers: workers}
			for b.Loop() {
				e.Run(opts)
			}
		})
	}
}

// BenchmarkFig9aWorkers measures full-axis Figure 9(a) wall clock at 1 vs
// 4 point fan-out workers.
func BenchmarkFig9aWorkers(b *testing.B) { runWorkersWallClock(b, "fig9a") }

// BenchmarkFig13Workers measures full-axis Figure 13 wall clock at 1 vs 4
// point fan-out workers.
func BenchmarkFig13Workers(b *testing.B) { runWorkersWallClock(b, "fig13") }

// BenchmarkFig9b regenerates Figure 9(b) (bandwidth).
func BenchmarkFig9b(b *testing.B) { runExperiment(b, "fig9b") }

// BenchmarkFig9c regenerates Figure 9(c) (one-to-all).
func BenchmarkFig9c(b *testing.B) { runExperiment(b, "fig9c") }

// BenchmarkFig10 regenerates Figure 10 (kNeighbor).
func BenchmarkFig10(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11 regenerates Figure 11 (N-Queens strong scaling).
func BenchmarkFig11(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12 regenerates Figure 12 (N-Queens time profiles).
func BenchmarkFig12(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFig13 regenerates Figure 13 (mini-NAMD weak scaling).
func BenchmarkFig13(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkTable1 regenerates Table I (N-Queens best times).
func BenchmarkTable1(b *testing.B) { runExperiment(b, "tab1") }

// BenchmarkTable2 regenerates Table II (ApoA1 strong scaling).
func BenchmarkTable2(b *testing.B) { runExperiment(b, "tab2") }
