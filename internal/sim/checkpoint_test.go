package sim

import (
	"fmt"
	"testing"
)

// chainPhase schedules a self-rescheduling chain of n events spaced step
// apart starting at t0, appending "(time,tag)" markers to log. Two events
// land on every instant (tags a and b scheduled in that order), so the log
// also witnesses (time, sequence) tie-breaking across a restore.
func chainPhase(k *Engine, t0, step Time, n int, log *[]string) {
	for i := 0; i < n; i++ {
		at := t0 + Time(i)*step
		for _, tag := range []string{"a", "b"} {
			tag := tag
			k.At(at, func() {
				*log = append(*log, fmt.Sprintf("%v/%s", k.Now(), tag))
			})
		}
	}
}

// runRoundTrip drives phase 1 on a fresh engine, checkpoints at
// quiescence, then replays phase 2 on a second restored engine; it returns
// the phase-2 log plus the final clock.
func runRoundTrip(t *testing.T) ([]string, Time) {
	t.Helper()
	k1 := NewEngine()
	var log1 []string
	chainPhase(k1, 10, 7, 5, &log1)
	k1.Run()
	ck, err := k1.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if ck.Now != k1.Now() {
		t.Fatalf("checkpoint clock %v != engine clock %v", ck.Now, k1.Now())
	}
	k2 := NewEngine()
	if err := k2.Restore(ck); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if k2.Now() != ck.Now {
		t.Fatalf("restored clock %v != checkpoint %v", k2.Now(), ck.Now)
	}
	var log2 []string
	chainPhase(k2, ck.Now+3, 5, 4, &log2)
	k2.Run()
	return log2, k2.Now()
}

// TestKernelCheckpointRoundTrip proves the restore contract: a fresh
// engine restored from a quiescent checkpoint replays a second phase
// identically to the unbroken run, sequence tie-breaks included.
func TestKernelCheckpointRoundTrip(t *testing.T) {
	// Continuous oracle: both phases on one engine.
	k := NewEngine()
	var oracle []string
	chainPhase(k, 10, 7, 5, &oracle)
	k.Run()
	chainPhase(k, k.Now()+3, 5, 4, &oracle)
	k.Run()
	oracle = oracle[10:] // phase 2 only
	oracleEnd := k.Now()

	log, end := runRoundTrip(t)
	if end != oracleEnd {
		t.Errorf("resumed end %v, oracle %v", end, oracleEnd)
	}
	if len(log) != len(oracle) {
		t.Fatalf("resumed fired %d events, oracle %d", len(log), len(oracle))
	}
	for i := range log {
		if log[i] != oracle[i] {
			t.Errorf("event %d: resumed %q, oracle %q", i, log[i], oracle[i])
		}
	}
}

// TestCheckpointRequiresQuiescence pins the coordination rule: snapshots
// and restores of a kernel with pending events are refused.
func TestCheckpointRequiresQuiescence(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {})
	if _, err := e.Checkpoint(); err == nil {
		t.Fatal("checkpoint with a pending event did not fail")
	}
	if err := e.Restore(KernelCheckpoint{Now: 100}); err == nil {
		t.Fatal("restore with a pending event did not fail")
	}
	e.Run()
	ck, err := e.Checkpoint()
	if err != nil {
		t.Fatalf("quiescent checkpoint: %v", err)
	}
	// Restoring backward must be refused too: the recovered timeline is
	// monotone.
	e.RunUntil(ck.Now + 50)
	if err := e.Restore(ck); err == nil {
		t.Fatal("restore did not refuse to rewind the clock")
	}
}

// TestCheckpointAdvanced pins the forward-warp helper used to price
// detection delay and restart cost into a rollback.
func TestCheckpointAdvanced(t *testing.T) {
	ck := KernelCheckpoint{Now: 10, LastAt: 10, Seq: 3, Fired: 3}
	w := ck.Advanced(25)
	if w.Now != 25 || w.LastAt != 25 || w.Seq != 3 || w.Fired != 3 {
		t.Fatalf("Advanced(25) = %+v", w)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Advanced backward did not panic")
		}
	}()
	ck.Advanced(5)
}
