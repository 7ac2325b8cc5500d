// Command perfbench is the repository's benchmark: it measures what the
// simulator costs on the host, end to end and layer by layer, for three
// workloads (see NOTES.md for why each exists and which metrics it should
// move).
//
//	bash perfbench/run.sh --workload pingpong|namd|nqueens --seed N --seconds S --trace 0|1
//
// Untraced (--trace 0), it times whole workload passes and prints the
// end-to-end metrics. Traced (--trace 1), it prints the per-layer metrics:
// simulator counters, a probe's kernel statistics, a CPU profile split by
// module and the per-layer microbenchmark ladder. Either way it checks
// every operation's virtual-time results and prints, as its last line, one
// JSON object with the operations attempted and failed and the metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"testing"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	seed    uint64
	seconds int
	trace   bool
	out     string // directory for the CPU profile
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: pingpong, namd or nqueens")
	seed := fs.Int64("seed", defaultSeed, "workload seed (any integer)")
	seconds := fs.Int("seconds", 10, "seconds of timed passes")
	trace := fs.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	out := fs.String("out", ".bench_build", "directory for the CPU profile of the traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload pingpong|namd|nqueens, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	// One process, at most two Ps: the simulation is single-threaded and
	// the second P serves the garbage collector.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	log := func(s string) { fmt.Fprintln(stderr, s) }
	res, err := benchmark(w, options{seed: uint64(*seed), seconds: *seconds, trace: *trace == 1, out: *out}, log)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// benchmark runs one workload. An operation is one simulated point; it
// fails on a panic, a pooled descriptor left live, a wrong N-Queens
// solution count, a result differing from the reference pass (which also
// catches traced and untraced runs disagreeing), and on the default seed
// a result differing from expected.json.
func benchmark(w workload, o options, log func(string)) (result, error) {
	r := result{Metrics: map[string]metric{}}
	pts := w.points(o.seed)

	// The reference pass also warms the construction slab caches, so
	// timed passes start in steady state.
	ref := runPass(pts, nil, nil, log)
	r.Attempted += len(pts)
	r.Failed += ref.failed
	if o.seed == defaultSeed {
		r.Failed += checkRecorded(w.name, pts, ref.results, log)
	}
	for i, p := range pts {
		if p.oracle == nil {
			continue
		}
		r.Attempted++
		if got, want := ref.results[i].OneWay, p.oracle(); got != want {
			r.Failed++
			log(fmt.Sprintf("%s: one-way %v, the experiment harness measures %v", p.name, got, want))
		}
	}

	budget := time.Duration(o.seconds) * time.Second
	if !o.trace {
		samples, attempted, failed := measure(w, pts, ref.results, budget, nil, log)
		r.Attempted += attempted
		r.Failed += failed
		r.set("wall_s", medianOf(samples, func(s sample) float64 { return s.wall.Seconds() }), "s")
		r.set("setup_s", medianOf(samples, func(s sample) float64 { return s.setup.Seconds() }), "s")
		r.set("alloc_mb", medianOf(samples, func(s sample) float64 { return float64(s.allocBytes) / 1e6 }), "MB")
		r.set("max_rss_mb", maxRSSBytes()/1e6, "MB")
	} else if err := traced(w, o, pts, ref, budget, &r, log); err != nil {
		return r, err
	}
	r.Correct = r.Failed == 0
	return r, nil
}

// traced produces the per-layer metrics: half the budget untraced under a
// CPU profile, half with the benchmark's tracer attached, then the ladder.
func traced(w workload, o options, pts []point, ref pass, budget time.Duration, r *result, log func(string)) error {
	var tot virt
	for _, v := range ref.results {
		tot.Events += v.Events
		tot.Transfers += v.Transfers
		tot.Bytes += v.Bytes
		tot.Processed += v.Processed
		tot.SmsgSent += v.SmsgSent
		tot.RdmaSent += v.RdmaSent
		tot.EagerSent += v.EagerSent
		tot.RndvSent += v.RndvSent
		tot.UdregHits += v.UdregHits
		tot.UdregMisses += v.UdregMisses
		tot.Tasks += v.Tasks
		tot.TreeNodes += v.TreeNodes
	}

	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	profile := filepath.Join(o.out, fmt.Sprintf("cpu-%s-%d.pprof", w.name, o.seed))
	f, err := os.Create(profile)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	plain, attempted, failed := measure(w, pts, ref.results, budget/2, nil, log)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	r.Attempted += attempted
	r.Failed += failed

	tr := newTracer()
	probed, attempted, failed := measure(w, pts, ref.results, budget/2, tr, log)
	r.Attempted += attempted
	r.Failed += failed
	passes := uint64(attempted / len(pts))

	wall := medianOf(plain, func(s sample) float64 { return s.wall.Seconds() })
	events := float64(tot.Events)
	r.set("sim.events", events, "count")
	r.set("sim.host_ns_per_event", wall*1e9/events, "ns")
	r.set("sim.peak_pending", float64(tr.peakPending), "count")
	r.set("sim.bookings", float64(tr.bookings/passes), "count")
	r.set("sim.book_lead_p99_ns", float64(tr.lead.quantile(0.99)), "sim_ns")
	r.set("gemini.transfers", float64(tot.Transfers), "count")
	r.set("gemini.bytes", float64(tot.Bytes), "bytes")
	r.set("gemini.link_bookings", float64(tr.linkBookings/passes), "count")
	r.set("ugnimachine.run_s", medianOf(plain, func(s sample) float64 { return s.runUGNI.Seconds() }), "s")
	r.set("ugnimachine.smsg_sent", float64(tot.SmsgSent), "count")
	r.set("ugnimachine.rdma_sent", float64(tot.RdmaSent), "count")
	r.set("mpimachine.run_s", medianOf(plain, func(s sample) float64 { return s.runMPI.Seconds() }), "s")
	r.set("mpi.eager_sent", float64(tot.EagerSent), "count")
	r.set("mpi.rndv_sent", float64(tot.RndvSent), "count")
	ratio := 0.0 // no registration lookups at all
	if n := tot.UdregHits + tot.UdregMisses; n > 0 {
		ratio = float64(tot.UdregHits) / float64(n)
	}
	r.set("mpi.udreg_hit_ratio", ratio, "ratio")
	r.set("converse.processed", float64(tot.Processed), "count")
	r.set("ssse.tasks", float64(tot.Tasks), "count")
	r.set("ssse.tree_nodes", float64(tot.TreeNodes), "count")
	r.set("mem.allocs_per_event", medianOf(plain, func(s sample) float64 { return float64(s.mallocs) })/events, "allocs/event")
	tracedWall := medianOf(probed, func(s sample) float64 { return s.wall.Seconds() })
	r.set("trace.overhead_pct", 100*(tracedWall/wall-1), "%")

	shares, err := cpuShares(profile)
	if err != nil {
		return err
	}
	for _, m := range profiledModules {
		r.set(m+".cpu_pct", shares[m], "%")
	}

	// The ladder: each rung is one operation, failing if its benchmark
	// fails (for the replay rung, if a granted interval differs).
	link, stream, err := captureLinkStream(o.seed)
	r.Attempted++
	if err != nil {
		r.Failed++
		log(fmt.Sprintf("capturing the link booking stream: %v", err))
	}
	log(fmt.Sprintf("replaying %d bookings of %s", len(stream), link))
	testing.Init()
	if err := flag.Set("test.benchtime", "200ms"); err != nil {
		return err
	}
	for _, rg := range ladder(stream) {
		r.Attempted++
		res := testing.Benchmark(rg.bench)
		if res.N == 0 {
			r.Failed++
			log(fmt.Sprintf("ladder rung %s failed", rg.metric))
			continue
		}
		r.set(rg.metric+"_ns", float64(res.T.Nanoseconds())/float64(res.N), "ns/op")
		r.set(rg.metric+"_allocs", float64(res.MemAllocs)/float64(res.N), "allocs/op")
	}
	return nil
}

//go:embed expected.json
var expectedJSON []byte

// checkRecorded compares the default seed's reference results with
// expected.json and returns the number of points that differ or have no
// recorded value.
func checkRecorded(workload string, pts []point, got []virt, log func(string)) int {
	var expected map[string]map[string]recorded
	if err := json.Unmarshal(expectedJSON, &expected); err != nil {
		log(fmt.Sprintf("expected.json: %v", err))
		return len(pts)
	}
	failed := 0
	for i, p := range pts {
		want, ok := expected[workload][p.name]
		if g := got[i].recorded(); !ok || g != want {
			failed++
			log(fmt.Sprintf("%s: recorded %+v, got %+v", p.name, want, g))
		}
	}
	return failed
}

// medianOf returns the median of f over the samples.
func medianOf(samples []sample, f func(sample) float64) float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = f(s)
	}
	return median(xs)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// maxRSSBytes is the process's peak resident set size.
func maxRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}
