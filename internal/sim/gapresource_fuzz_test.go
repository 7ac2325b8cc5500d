package sim

import "testing"

// FuzzGapResource drives GapResource and the linear sorted-slice
// reference (linearGap) with one request stream decoded from the input,
// three bytes per request: a clock advance, a ready offset from the
// clock, and a signed duration. After every booking the two
// must agree on start and end, and the resource's BusyTotal, Acquires
// and FreeAt must match the reference's ground truth. The clock only
// moves forward and requests never ask for time before it — the contract
// that lets the resource prune dead intervals — so pruning runs
// throughout while the reference keeps every interval. The seed
// corpus covers reclaiming the dead prefix of a full run before a
// mid-run insert (compact-dead-prefix), a booking that merges both
// neighbours (merge-both-neighbours) and an interval ending exactly at
// the clock (prune-ends-at-clock).
func FuzzGapResource(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var now Time
		r := NewGapResource(Lit("fuzz"), func() Time { return now })
		ref := &linearGap{}
		var busy Time
		var acquires uint64
		for i := 0; i+3 <= len(data); i += 3 {
			now += Time(data[i] % 64)
			at := now + Time(data[i+1])
			dur := Time(int8(data[i+2])) // negative durations book as zero
			refDur := dur
			if refDur < 0 {
				refDur = 0
			}
			s, e := r.Acquire(at, dur)
			rs, re := ref.acquire(at, refDur)
			busy += refDur
			acquires++
			if s != rs || e != re {
				t.Fatalf("request %d Acquire(%v, %v) at clock %v: [%v,%v), reference [%v,%v)",
					i/3, at, dur, now, s, e, rs, re)
			}
			if got := r.BusyTotal(); got != busy {
				t.Fatalf("request %d: BusyTotal %v, reference %v", i/3, got, busy)
			}
			if got := r.Acquires(); got != acquires {
				t.Fatalf("request %d: Acquires %d, reference %d", i/3, got, acquires)
			}
			if got, want := r.FreeAt(), ref.freeAt(); got != want {
				t.Fatalf("request %d: FreeAt %v, reference %v", i/3, got, want)
			}
		}
	})
}

// freeAt is the reference FreeAt: the end of the last booked interval.
func (l *linearGap) freeAt() Time {
	if len(l.iv) == 0 {
		return 0
	}
	return l.iv[len(l.iv)-1].e
}
