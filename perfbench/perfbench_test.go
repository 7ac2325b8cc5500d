package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"testing"
	"time"

	"charmgo/internal/bench"
	"charmgo/internal/sim"
	"charmgo/internal/stats"
)

var update = flag.Bool("update", false, "rewrite expected.json from the default seed's results")

// benchmarkJSON is the repository's benchmark definition.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRecordedResults checks the default seed's virtual-time results of
// every workload against expected.json; with -update it rewrites the file.
func TestRecordedResults(t *testing.T) {
	all := map[string]map[string]recorded{}
	for _, w := range workloads {
		pts := w.points(defaultSeed)
		ps := runPass(pts, nil, nil, func(s string) { t.Error(s) })
		all[w.name] = map[string]recorded{}
		for i, p := range pts {
			all[w.name][p.name] = ps.results[i].recorded()
		}
		if !*update {
			if n := checkRecorded(w.name, pts, ps.results, func(s string) { t.Error(s) }); n > 0 {
				t.Errorf("%s: %d points differ from expected.json", w.name, n)
			}
		}
	}
	if *update {
		data, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("expected.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPingPongMatchesFig9a: the benchmark's ping-pong inter-node latencies
// on the default seed are Figure 9(a)'s charm/ugni and charm/mpi columns,
// cell for cell as the experiment harness renders them.
func TestPingPongMatchesFig9a(t *testing.T) {
	fig := bench.Fig9a(bench.Options{Seed: defaultSeed, Workers: 1})[0]
	rows := map[string][]string{}
	for _, row := range fig.Rows {
		rows[row[0]] = row
	}
	columns := map[string]int{"pingpong/ugni/inter": 1, "pingpong/mpi/inter": 2}
	checked := 0
	for _, size := range pingpongSizes(defaultSeed) {
		for prefix, col := range columns {
			p := pointNamed(t, pingpongPoints(defaultSeed), prefix, size)
			v, _, err := runPoint(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			cell := stats.NewTable("", "x")
			cell.Add(v.OneWay.Micros())
			label := stats.SizeLabel(size)
			if got, want := cell.Rows[0][0], rows[label][col]; got != want {
				t.Errorf("%s at %s: %s us, Fig 9a has %s", prefix, label, got, want)
			}
			checked++
		}
	}
	if checked != 2*len(fig.Rows) {
		t.Errorf("checked %d cells, Fig 9a has %d rows", checked, len(fig.Rows))
	}
}

func pointNamed(t *testing.T, pts []point, prefix string, size int) point {
	t.Helper()
	for _, p := range pts {
		if p.name == fmt.Sprintf("%s/%d", prefix, size) {
			return p
		}
	}
	t.Fatalf("no point %s/%d", prefix, size)
	return point{}
}

func metricNames(r result) []string { return slices.Sorted(maps.Keys(r.Metrics)) }

// TestEndToEndOnTwoSeeds runs every workload untraced on the default seed
// and on another one: no operation may fail, and the metrics printed are
// exactly BENCHMARK.json's end-to-end metrics, none of them zero.
func TestEndToEndOnTwoSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	var want []string
	for _, m := range readBenchmarkJSON(t).EndToEnd {
		want = append(want, m.Name)
	}
	slices.Sort(want)
	for _, w := range workloads {
		for _, seed := range []uint64{defaultSeed, 7} {
			r, err := benchmark(w, options{seed: seed, seconds: 1}, func(s string) { t.Log(s) })
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s seed %d: correct %v, %d of %d operations failed", w.name, seed, r.Correct, r.Failed, r.Attempted)
			}
			if got := metricNames(r); !slices.Equal(got, want) {
				t.Errorf("%s: metrics %v, BENCHMARK.json lists %v", w.name, got, want)
			}
			for name, m := range r.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s seed %d: %s = %v", w.name, seed, name, m.Value)
				}
			}
		}
	}
}

// TestTracedRun runs every workload traced: no operation fails (so the
// traced passes reproduce the untraced virtual-time results exactly), the
// metrics printed are exactly BENCHMARK.json's per-layer metrics, and the
// CPU profile shows the layer contrast the workloads exist for: the
// kernel (sim) leads on namd, the search engine (ssse) leads on nqueens,
// and ssse is absent from the other two.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload traced")
	}
	var want []string
	for _, m := range readBenchmarkJSON(t).PerLayer {
		want = append(want, m.Name)
	}
	slices.Sort(want)
	leader := map[string]string{"namd": "sim", "nqueens": "ssse"}
	for _, w := range workloads {
		r, err := benchmark(w, options{seed: defaultSeed, seconds: 2, trace: true, out: t.TempDir()}, func(s string) { t.Log(s) })
		if err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed", w.name, r.Failed, r.Attempted)
		}
		if got := metricNames(r); !slices.Equal(got, want) {
			t.Errorf("%s: metrics %v, BENCHMARK.json lists %v", w.name, got, want)
		}
		top, topPct := "", -1.0
		for _, m := range profiledModules {
			if pct := r.Metrics[m+".cpu_pct"].Value; m != "runtime" && pct > topPct {
				top, topPct = m, pct
			}
		}
		if l, ok := leader[w.name]; ok && top != l {
			t.Errorf("%s: %s has the largest CPU share (%.1f%%), want %s", w.name, top, topPct, l)
		}
		if w.name != "nqueens" && r.Metrics["ssse.cpu_pct"].Value > 1 {
			t.Errorf("%s: ssse.cpu_pct = %.1f, want ~0", w.name, r.Metrics["ssse.cpu_pct"].Value)
		}
	}
}

// slowProbe is a probe that burns host time without touching simulation
// state: a deliberate, virtual-time-neutral slowdown of the timed run.
// With linksOnly it spins only on torus-link bookings, which namd makes
// about ten times as often per host second as nqueens.
type slowProbe struct {
	linksOnly bool
	spins     int
	links     linkNames
	sink      uint64
}

func (s *slowProbe) startMachine() { clear(s.links) }

func (s *slowProbe) EventFired(sim.Time, int) {
	if !s.linksOnly {
		s.spin()
	}
}

func (s *slowProbe) Booking(r sim.Booked, _, _, _ sim.Time) {
	if s.linksOnly && s.links.is(r) {
		s.spin()
	}
}

func (s *slowProbe) FaultNoted(sim.FaultKind, sim.Time) {}

func (s *slowProbe) spin() {
	for i := 0; i < s.spins; i++ {
		s.sink = s.sink*6364136223846793005 + 1442695040888963407
	}
}

// regressed is the benchmark's regression rule for one metric: the
// change's median is worse than the parent's by more than the bound.
func regressed(parent, change []float64, bound float64) bool {
	return median(change) > median(parent)*(1+bound)
}

// wallTimes times passes of a workload with the given probe on the timed
// run; every pass must reproduce ref's virtual-time results.
func wallTimes(t *testing.T, w workload, pts []point, ref []virt, probe machineProbe) []float64 {
	t.Helper()
	samples, _, failed := measure(w, pts, ref, 3*time.Second, probe, func(s string) { t.Error(s) })
	if failed != 0 {
		t.Fatalf("%s: %d operations failed with the probe attached", w.name, failed)
	}
	var xs []float64
	for _, s := range samples {
		xs = append(xs, s.wall.Seconds())
	}
	return xs
}

// TestSlowProbeTripsWallGate shows the benchmark bites: a slow probe on
// the timed run must trip the wall_s regression rule, at BENCHMARK.json's
// bound, on every workload; a probe slow only on link bookings must slow
// namd far more than nqueens. Neither changes virtual time.
func TestSlowProbeTripsWallGate(t *testing.T) {
	if testing.Short() {
		t.Skip("times every workload with and without a slow probe")
	}
	bound := -1.0
	for _, m := range readBenchmarkJSON(t).EndToEnd {
		if m.Name == "wall_s" {
			bound = m.Bound
		}
	}
	if bound <= 0 {
		t.Fatal("BENCHMARK.json has no wall_s bound")
	}
	slowdown := map[string]float64{}
	for _, w := range workloads {
		pts := w.points(defaultSeed)
		ref := runPass(pts, nil, nil, func(s string) { t.Error(s) }).results
		clean := wallTimes(t, w, pts, ref, nil)
		slow := wallTimes(t, w, pts, ref, &slowProbe{spins: 2000, links: linkNames{}})
		if !regressed(clean, slow, bound) {
			t.Errorf("%s: slow probe did not trip the wall_s gate: %.4fs -> %.4fs, bound %.0f%%",
				w.name, median(clean), median(slow), 100*bound)
		}
		if w.name == "pingpong" {
			continue
		}
		links := wallTimes(t, w, pts, ref, &slowProbe{linksOnly: true, spins: 2000, links: linkNames{}})
		slowdown[w.name] = median(links)/median(clean) - 1
		t.Logf("%s: clean %.3fs, slow probe %.3fs, link-only slow probe %.3fs (%+.0f%%)",
			w.name, median(clean), median(slow), median(links), 100*slowdown[w.name])
	}
	if slowdown["namd"] < 3*slowdown["nqueens"] || !(slowdown["namd"] > bound) {
		t.Errorf("link-only slow probe: namd %+.0f%%, nqueens %+.0f%%; want namd past the bound and over 3x nqueens",
			100*slowdown["namd"], 100*slowdown["nqueens"])
	}
}

// BenchmarkLadder runs the per-layer ladder; the replay rung replays the
// busiest link of the default seed's namd MPI-layer run.
func BenchmarkLadder(b *testing.B) {
	_, stream, err := captureLinkStream(defaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range ladder(stream) {
		b.Run(r.metric, r.bench)
	}
}

// TestParseTraces pins the pprof -traces parsing: the sample goes to the
// first charmgo/internal module from the leaf, else to runtime.
func TestParseTraces(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.mapaccess2
             charmgo/internal/machine/ugnimachine.(*Layer).SyncSend
             charmgo/internal/converse.(*Ctx).SendPrio
-----------+-------------------------------------------------------
      10ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      60ms   charmgo/internal/sim.(*Engine).siftDown (inline)
             charmgo/internal/sim.(*Engine).Step
-----------+-------------------------------------------------------
`)
	got, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"ugnimachine": 30, "runtime": 10, "sim": 60}
	if !maps.Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

// TestLeadHistQuantile: the p99 lands in the right bucket, within the
// histogram's 1/16 resolution.
func TestLeadHistQuantile(t *testing.T) {
	var h leadHist
	for v := sim.Time(0); v < 10000; v++ {
		h.add(v)
	}
	if q := h.quantile(0.99); q > 9900 || q < 9900*15/16 {
		t.Errorf("p99 of 0..9999 = %d", q)
	}
	for v := uint64(0); v < 1<<20; v = v*3/2 + 1 {
		if b := leadBucket(v); bucketFloor(b) > v || leadBucket(bucketFloor(b)) != b {
			t.Errorf("value %d: bucket %d floor %d", v, b, bucketFloor(b))
		}
	}
}
