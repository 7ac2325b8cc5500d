package bench

import (
	"fmt"
	"math"
	"testing"

	"charmgo/internal/fault"
	"charmgo/internal/resilience"
	"charmgo/internal/sim"
)

// This file backs `benchharness -benchjson` and `-allocgate` (Makefile
// targets bench-json and alloc-gate): a fixed benchmark suite measured via
// testing.Benchmark, so allocation accounting comes from the runtime
// itself rather than from parsing `go test -bench` output.

// BenchResult is one benchmark measurement: the mean over Runs repeated
// testing.Benchmark samples, with the sample standard deviation alongside
// so recorded BENCH_*.json artifacts carry run-to-run noise, not just the
// level. Baseline entries recorded before the repetition machinery have
// Runs == 0 and no stddev.
type BenchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsStddev    float64 `json:"ns_stddev,omitempty"`
	Runs        int     `json:"runs,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// benchIters is the repetition count per suite entry.
const benchIters = 5

// suiteEntry is one named benchmark body awaiting interleaved sampling.
type suiteEntry struct {
	name string
	fn   func(b *testing.B)
	ns   []float64
	res  BenchResult
}

// sample takes one testing.Benchmark measurement of the entry.
func (e *suiteEntry) sample() {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		e.fn(b)
	})
	e.ns = append(e.ns, float64(r.T.Nanoseconds())/float64(r.N))
	e.res.AllocsPerOp = int64(r.AllocsPerOp())
	e.res.BytesPerOp = int64(r.AllocedBytesPerOp())
}

// finish folds the samples into mean and sample stddev.
func (e *suiteEntry) finish() BenchResult {
	var sum float64
	for _, v := range e.ns {
		sum += v
	}
	mean := sum / float64(len(e.ns))
	var sq float64
	for _, v := range e.ns {
		d := v - mean
		sq += d * d
	}
	e.res.Name = e.name
	e.res.Runs = len(e.ns)
	e.res.NsPerOp = mean
	if len(e.ns) > 1 {
		e.res.NsStddev = math.Sqrt(sq / float64(len(e.ns)-1))
	}
	return e.res
}

// measureAll samples every entry benchIters times in interleaved rounds
// (one sample of each entry per round, not benchIters consecutive samples
// per entry): host load drifts over the minutes a full recording takes,
// and interleaving puts every entry's k-th sample under the same
// conditions, so cross-entry comparisons (workers=1 vs workers=4) see the
// drift as shared noise rather than as a spurious difference — the same
// interleaved methodology the PR 3 baseline was recorded with.
func measureAll(entries []*suiteEntry) []BenchResult {
	for i := 0; i < benchIters; i++ {
		for _, e := range entries {
			e.sample()
		}
	}
	out := make([]BenchResult, len(entries))
	for i, e := range entries {
		out[i] = e.finish()
	}
	return out
}

// measure samples one standalone benchmark benchIters times (the
// interleaved suite path is measureAll; this serves single-entry callers
// like the allocation gate).
func measure(name string, fn func(b *testing.B)) BenchResult {
	e := &suiteEntry{name: name, fn: fn}
	for i := 0; i < benchIters; i++ {
		e.sample()
	}
	return e.finish()
}

// Fig9aWallClock measures one full-axis Figure 9(a) regeneration per op:
// the end-to-end speed benchmark of the simulation kernel (the same work
// as the top-level BenchmarkFig9aWallClock).
func Fig9aWallClock() BenchResult {
	e, ok := Find("fig9a")
	if !ok {
		panic("bench: fig9a experiment missing")
	}
	opts := Options{Quick: false, Seed: 1}
	return measure("fig9a_wallclock", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.Run(opts)
		}
	})
}

// figWorkersEntry builds the suite entry measuring one full-axis
// experiment regeneration per op with the point fan-out set to workers.
// Virtual-time results are bit-identical at every worker count; wall
// clock improves from the fan-out (clamped to GOMAXPROCS) on multi-core
// hosts (DESIGN.md §2.3).
func figWorkersEntry(id string, workers int) *suiteEntry {
	e, ok := Find(id)
	if !ok {
		panic("bench: " + id + " experiment missing")
	}
	return &suiteEntry{
		name: fmt.Sprintf("%s_wallclock_workers%d", id, workers),
		fn: func(b *testing.B) {
			opts := Options{Quick: false, Seed: 1, Workers: workers}
			for i := 0; i < b.N; i++ {
				e.Run(opts)
			}
		},
	}
}

// resilienceEntries measures the two recovery strategies on their
// killed paths (one failover / one rollback per op): the BENCH_PR10.json
// wall-clock cost of the resilience machinery itself — DeadRoute
// redirects, dead-node reaping, and checkpoint/restore — under load.
func resilienceEntries() []*suiteEntry {
	kill := fault.Schedule{Ops: []fault.Op{{At: 15 * sim.Microsecond, Kind: fault.NodeKill, Src: 5}}}
	return []*suiteEntry{
		{name: "resilience_team_failover", fn: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				resilience.RunTeam(resilience.TeamConfig{Teams: 4, Msgs: 24, Size: 512, Faults: &kill})
			}
		}},
		{name: "resilience_checkpoint_rollback", fn: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				resilience.RunCheckpoint(resilience.CheckpointConfig{
					Nodes: 8, Phases: 4, HopsPerPhase: 32, Size: 512, Kills: kill.Ops,
				})
			}
		}},
	}
}

// RunBenchSuite runs the fixed figure + point fan-out + kernel
// microbenchmark suite with interleaved sampling (see measureAll).
func RunBenchSuite() []BenchResult {
	entries := []*suiteEntry{{name: "fig9a_wallclock", fn: func(b *testing.B) {
		e, ok := Find("fig9a")
		if !ok {
			b.Fatal("fig9a experiment missing")
		}
		opts := Options{Quick: false, Seed: 1}
		for i := 0; i < b.N; i++ {
			e.Run(opts)
		}
	}}}

	for _, workers := range []int{1, 4} {
		entries = append(entries, figWorkersEntry("fig9a", workers))
		entries = append(entries, figWorkersEntry("fig13", workers))
	}
	entries = append(entries, resilienceEntries()...)

	entries = append(entries, &suiteEntry{name: "engine_schedule_fire", fn: func(b *testing.B) {
		e := sim.NewEngine()
		var fn func()
		//simlint:allow bookviakernel -- kernel microbenchmark measures the raw Engine schedule+fire path
		fn = func() { e.Schedule(1, fn) }
		//simlint:allow bookviakernel -- kernel microbenchmark measures the raw Engine schedule+fire path
		e.Schedule(1, fn)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	}})

	entries = append(entries, &suiteEntry{name: "gap_acquire_dense", fn: func(b *testing.B) {
		var now sim.Time
		r := sim.NewGapResource(sim.Lit("x"), func() sim.Time { return now })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			//simlint:allow bookviakernel -- kernel microbenchmark measures raw GapResource booking
			_, e := r.Acquire(now, 10)
			now = e
		}
	}})

	entries = append(entries, &suiteEntry{name: "gap_acquire_sparse", fn: func(b *testing.B) {
		var now sim.Time
		r := sim.NewGapResource(sim.Lit("x"), func() sim.Time { return now })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			at := now + sim.Time(i%512)*20
			//simlint:allow bookviakernel -- kernel microbenchmark measures raw GapResource booking
			r.Acquire(at, 10)
			if i%512 == 511 {
				now += 512 * 20
			}
		}
	}})

	return measureAll(entries)
}

// CheckNsGate runs the Figure 9(a) wall-clock benchmark and returns an
// error if its mean ns/op exceeds the recorded mean by more than three
// recorded standard deviations — the wall-clock twin of the allocation
// gate. The reference comes from a checked-in BENCH_*.json artifact (see
// Makefile bench-json), so the gate is calibrated to the recording
// machine's own run-to-run noise rather than an arbitrary percentage.
func CheckNsGate(mean, stddev float64) (BenchResult, error) {
	r := Fig9aWallClock()
	limit := mean + 3*stddev
	if r.NsPerOp > limit {
		return r, fmt.Errorf("fig9a ns/op = %.0f, above gate %.0f (recorded mean %.0f + 3×stddev %.0f)",
			r.NsPerOp, limit, mean, stddev)
	}
	return r, nil
}

// CheckAllocGate runs the Figure 9(a) wall-clock benchmark and returns an
// error if its allocs/op exceeds threshold by more than 10% — the CI guard
// against allocation regressions on the hot path. The threshold is the
// checked-in allocs/op of the current implementation (see Makefile
// alloc-gate), so small fluctuation passes but a structural regression
// (a new closure or per-message allocation) fails.
func CheckAllocGate(threshold int64) (BenchResult, error) {
	r := Fig9aWallClock()
	limit := threshold + threshold/10
	if r.AllocsPerOp > limit {
		return r, fmt.Errorf("fig9a allocs/op = %d, above gate %d (threshold %d +10%%)",
			r.AllocsPerOp, limit, threshold)
	}
	return r, nil
}
