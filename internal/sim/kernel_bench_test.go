package sim

import "testing"

// BenchmarkEngineScheduleFire measures the steady-state cost of one
// schedule+fire cycle: the engine's hot path, which every layer of the
// stack drives millions of times per experiment.
func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine()
	var fn func()
	fn = func() {
		e.Schedule(1, fn)
	}
	e.Schedule(1, fn)
	b.ReportAllocs()
	for b.Loop() {
		e.Step()
	}
}

// BenchmarkGapResourceAcquire measures gap-filling bookings under three
// interval mixes:
//
//   - dense: requests land contiguously, so intervals merge and the live
//     set stays tiny (the common NIC-engine case);
//   - sparse: requests leave holes, so the live set grows until the clock
//     sweeps past and pruning reclaims it (the loaded torus-link case);
//   - backlog: 4,096 live intervals whose holes are all narrower than the
//     request, so every booking scans the whole run before extending its
//     last interval (the worst case of the O(k) gap scan).
func BenchmarkGapResourceAcquire(b *testing.B) {
	b.Run("dense", func(b *testing.B) {
		var now Time
		r := NewGapResource(Lit("x"), func() Time { return now })
		b.ReportAllocs()
		for b.Loop() {
			_, e := r.Acquire(now, 10)
			now = e
		}
	})
	b.Run("sparse", func(b *testing.B) {
		var now Time
		r := NewGapResource(Lit("x"), func() Time { return now })
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			// Book ahead of now with holes; advance the clock slowly so a
			// few hundred live intervals persist between prunes.
			at := now + Time(i%512)*20
			r.Acquire(at, 10)
			if i%512 == 511 {
				now += 512 * 20
			}
			i++
		}
	})
	b.Run("backlog", func(b *testing.B) {
		r := NewGapResource(Lit("x"), zeroClock)
		for i := range 4096 {
			r.Acquire(Time(i)*20, 10)
		}
		b.ReportAllocs()
		for b.Loop() {
			r.Acquire(0, 11)
		}
	})
}
