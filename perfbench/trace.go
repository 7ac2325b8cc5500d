package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/bits"
	"os/exec"
	"strings"
	"time"

	"charmgo/internal/sim"
)

// linkNames answers "is this resource a torus link?" for one machine.
// Resource names are built on demand, so each resource's answer is cached;
// the cache is per machine because construction slabs recycle resource
// structs across machines.
type linkNames map[sim.Booked]bool

func (l linkNames) is(r sim.Booked) bool {
	isLink, ok := l[r]
	if !ok {
		isLink = strings.HasPrefix(r.Name(), "link")
		l[r] = isLink
	}
	return isLink
}

// tracer is the benchmark's probe for the traced run. It counts
// bookings, tracks the event heap's high-water mark, and histograms
// the booking lead of gap-filling resources (NIC engines and links): how
// far ahead of the kernel clock a granted interval starts, which is how
// long it stays live in the resource's interval set. Like every probe it
// only observes.
type tracer struct {
	bookings, linkBookings uint64
	peakPending            int
	lead                   leadHist

	now   sim.Time // kernel clock of the event being fired
	links linkNames
}

func newTracer() *tracer { return &tracer{links: linkNames{}} }

func (t *tracer) startMachine() {
	t.now = 0
	clear(t.links)
}

func (t *tracer) EventFired(now sim.Time, pending int) {
	t.now = now
	t.peakPending = max(t.peakPending, pending)
}

func (t *tracer) Booking(r sim.Booked, at, start, end sim.Time) {
	t.bookings++
	if t.links.is(r) {
		t.linkBookings++
	}
	if _, ok := r.(*sim.GapResource); ok {
		t.lead.add(max(0, start-t.now))
	}
}

func (t *tracer) FaultNoted(sim.FaultKind, sim.Time) {}

// leadHist is a log-linear histogram of non-negative durations: exact
// below 16 ns, then 16 buckets per power of two (under 7% relative error),
// enough for a p99 without keeping every sample.
type leadHist struct {
	counts [64 * 16]uint64
	n      uint64
}

func (h *leadHist) add(v sim.Time) {
	h.counts[leadBucket(uint64(v))]++
	h.n++
}

func leadBucket(v uint64) int {
	if v < 16 {
		return int(v)
	}
	shift := bits.Len64(v) - 5
	return shift*16 + int(v>>uint(shift))
}

// bucketFloor is the smallest value that falls in bucket b.
func bucketFloor(b int) uint64 {
	if b < 32 {
		return uint64(b)
	}
	shift := b/16 - 1
	return uint64(b-shift*16) << uint(shift)
}

// quantile returns the lower bound of the bucket holding the q-quantile.
func (h *leadHist) quantile(q float64) sim.Time {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen > rank {
			return sim.Time(bucketFloor(b))
		}
	}
	return sim.Time(bucketFloor(len(h.counts) - 1))
}

// booking is one recorded link booking: the kernel clock when it was made,
// the requested ready time and the granted interval.
type booking struct {
	now, at, start, end sim.Time
}

// linkRecorder records every torus-link booking of one machine, per link,
// for the GapResource replay rung of the ladder.
type linkRecorder struct {
	now     sim.Time
	links   linkNames
	streams map[sim.Booked][]booking
}

func newLinkRecorder() *linkRecorder {
	return &linkRecorder{links: linkNames{}, streams: map[sim.Booked][]booking{}}
}

func (l *linkRecorder) startMachine() {
	l.now = 0
	clear(l.links)
	clear(l.streams)
}

func (l *linkRecorder) EventFired(now sim.Time, _ int) { l.now = now }

func (l *linkRecorder) Booking(r sim.Booked, at, start, end sim.Time) {
	if l.links.is(r) {
		l.streams[r] = append(l.streams[r], booking{now: l.now, at: at, start: start, end: end})
	}
}

func (l *linkRecorder) FaultNoted(sim.FaultKind, sim.Time) {}

// busiest returns the longest recorded stream (ties: the later-named
// link wins, so the choice is deterministic).
func (l *linkRecorder) busiest() (name string, stream []booking) {
	for r, s := range l.streams {
		if n := r.Name(); len(s) > len(stream) || (len(s) == len(stream) && n > name) {
			name, stream = n, s
		}
	}
	return name, stream
}

// profiledModules are the simulator's layers named in the per-layer
// cpu_pct metrics.
var profiledModules = []string{
	"sim", "gemini", "ugni", "ugnimachine", "mpi", "mpimachine",
	"converse", "charm", "md", "ssse", "mem", "runtime",
}

// cpuShares reads a CPU profile with `go tool pprof -traces` and charges
// each sample to the first charmgo/internal/<module> frame from the leaf,
// so map, atomic and allocation work counts to the layer that asked for
// it; samples with no such frame count to "runtime". It returns each
// module's percentage of all samples.
func cpuShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTraces(out)
}

// parseTraces parses `pprof -traces` output: stacks separated by dashed
// lines, each opening with the sample value and the leaf frame, callers
// on the following lines.
func parseTraces(out []byte) (map[string]float64, error) {
	byModule := map[string]time.Duration{}
	var total time.Duration
	var value time.Duration
	module := ""
	flush := func() {
		if value == 0 {
			return
		}
		if module == "" {
			module = "runtime"
		}
		byModule[module] += value
		total += value
		value, module = 0, ""
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inStacks := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			flush()
			inStacks = true
			continue
		}
		if !inStacks {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		frame := fields[0]
		if d, err := time.ParseDuration(fields[0]); err == nil && len(fields) > 1 {
			value, frame = d, fields[1]
		}
		if module == "" {
			module = moduleOf(frame)
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile has no samples")
	}
	pct := map[string]float64{}
	for m, d := range byModule {
		pct[m] = 100 * float64(d) / float64(total)
	}
	return pct, nil
}

// moduleOf maps a frame such as charmgo/internal/machine/ugnimachine.(*Layer).SyncSend
// to its module ("ugnimachine"), or "" for frames outside charmgo/internal.
func moduleOf(frame string) string {
	rest, ok := strings.CutPrefix(frame, "charmgo/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	if i := strings.LastIndexByte(rest, '/'); i >= 0 {
		rest = rest[i+1:]
	}
	return rest
}
