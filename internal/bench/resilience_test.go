package bench

import (
	"fmt"
	"strings"
	"testing"

	"charmgo"
	"charmgo/internal/fault"
	"charmgo/internal/machine/ugnimachine"
	"charmgo/internal/mem"
	"charmgo/internal/resilience"
	"charmgo/internal/sim"
)

// This file is the node-failure half of the fault-model contract
// (DESIGN.md §7 "Node failure and recovery"): a fixed scenario matrix
// and a seeded failover property test prove that both recovery
// strategies — team replication with warm failover and coordinated
// in-memory checkpoint + rollback — preserve exactly-once application,
// per-connection FIFO, drained pools, and bit-identical replay across
// node kills and network partitions. `make resilience-matrix` runs it
// under -race (CI step "Resilience matrix").

// TestResilienceScenarioMatrix runs the fixed kill/partition scenarios:
// each must recover, leak nothing, and replay bit-identically.
func TestResilienceScenarioMatrix(t *testing.T) {
	team := func(cfg resilience.TeamConfig, extra func(t *testing.T, r resilience.TeamResult)) func(t *testing.T) {
		return func(t *testing.T) {
			live := mem.LiveDescriptors()
			r := resilience.RunTeam(cfg)
			if err := r.Check(cfg); err != nil {
				t.Errorf("%v\n%s", err, r.Signature())
			}
			extra(t, r)
			if got := mem.LiveDescriptors(); got != live {
				t.Errorf("scenario leaked %d pool descriptors", got-live)
			}
			if r2 := resilience.RunTeam(cfg); r2.Signature() != r.Signature() {
				t.Errorf("scenario is not deterministic:\n--- first\n%s\n--- second\n%s",
					r.Signature(), r2.Signature())
			}
		}
	}
	kill := func(node int, at sim.Time) *fault.Schedule {
		return &fault.Schedule{Ops: []fault.Op{{At: at, Kind: fault.NodeKill, Src: node}}}
	}

	t.Run("single-kill", team(
		resilience.TeamConfig{Teams: 4, Msgs: 24, Faults: kill(5, 30*sim.Microsecond)},
		func(t *testing.T, r resilience.TeamResult) {
			if r.Kills != 1 || !r.Dead[5] {
				t.Errorf("kill did not land on node 5: %s", r.Signature())
			}
			if r.Failovers == 0 || r.HeartbeatMisses == 0 {
				t.Errorf("survivor never declared the dead partner: %s", r.Signature())
			}
			if r.Reroutes == 0 {
				t.Errorf("no in-flight send warm-failed-over to the survivor: %s", r.Signature())
			}
		}))

	t.Run("single-kill-mpi", team(
		resilience.TeamConfig{Teams: 4, Msgs: 24, Layer: charmgo.LayerMPI,
			Faults: kill(6, 30*sim.Microsecond)},
		func(t *testing.T, r resilience.TeamResult) {
			if r.Kills != 1 || !r.Dead[6] {
				t.Errorf("kill did not land on node 6: %s", r.Signature())
			}
		}))

	t.Run("kill-during-rendezvous", team(
		// 256 KiB payloads force every application message through the
		// rendezvous protocol; the kill lands while transfers are in
		// flight, so the dead node's pending-send queues hold live
		// rendezvous traffic when OnNodeDeath reaps them.
		resilience.TeamConfig{Teams: 2, Msgs: 8, Size: 256 << 10,
			Faults: kill(3, 20*sim.Microsecond)},
		func(t *testing.T, r resilience.TeamResult) {
			if r.Kills != 1 || !r.Dead[3] {
				t.Errorf("kill did not land on node 3: %s", r.Signature())
			}
		}))

	t.Run("partition-heal", team(
		resilience.TeamConfig{Teams: 4, Msgs: 24,
			Faults: &fault.Schedule{Ops: []fault.Op{
				{At: 20 * sim.Microsecond, Kind: fault.Partition, Arg: 1, Dur: 100 * sim.Microsecond},
			}}},
		func(t *testing.T, r resilience.TeamResult) {
			if r.Partitions == 0 {
				t.Errorf("partition never cut: %s", r.Signature())
			}
			if r.Kills != 0 {
				t.Errorf("partition scenario killed a node: %s", r.Signature())
			}
			// Nobody died, so every replica must have applied the full
			// stream once the partition healed (checked by Check), and
			// no reroute may have fired.
			if r.Reroutes != 0 {
				t.Errorf("partition rerouted %d messages with no dead PE", r.Reroutes)
			}
		}))

	t.Run("kill-both-strategies", func(t *testing.T) {
		// The same fail-stop (node 3 at 25µs) through both strategies:
		// replication absorbs it with zero lost work; checkpoint/restart
		// rolls back and re-executes the phase.
		live := mem.LiveDescriptors()
		tcfg := resilience.TeamConfig{Teams: 4, Msgs: 24, Faults: kill(3, 25*sim.Microsecond)}
		tr := resilience.RunTeam(tcfg)
		if err := tr.Check(tcfg); err != nil {
			t.Errorf("team strategy: %v\n%s", err, tr.Signature())
		}
		ccfg := resilience.CheckpointConfig{Nodes: 8, Phases: 3, HopsPerPhase: 24,
			Kills: []fault.Op{{At: 25 * sim.Microsecond, Kind: fault.NodeKill, Src: 3}}}
		cr := resilience.RunCheckpoint(ccfg)
		if cr.Kills != 1 || cr.Rollbacks == 0 {
			t.Errorf("checkpoint strategy never rolled back: %s", cr.Signature())
		}
		if want := ccfg.Phases * ccfg.HopsPerPhase; cr.HopsApplied != want {
			t.Errorf("checkpoint strategy applied %d/%d hops", cr.HopsApplied, want)
		}
		free := resilience.RunCheckpoint(resilience.CheckpointConfig{Nodes: 8, Phases: 3, HopsPerPhase: 24})
		if cr.FinalTime <= free.FinalTime {
			t.Errorf("rollback recovery was free: killed=%d failure-free=%d",
				cr.FinalTime, free.FinalTime)
		}
		if got := mem.LiveDescriptors(); got != live {
			t.Errorf("scenario leaked %d pool descriptors", got-live)
		}
		if tr2, cr2 := resilience.RunTeam(tcfg), resilience.RunCheckpoint(ccfg); tr2.Signature() != tr.Signature() || cr2.Signature() != cr.Signature() {
			t.Error("kill-both-strategies is not deterministic across double runs")
		}
	})
}

// TestResiliencePropertyFailover draws seeded random kill/partition
// schedules (layered over NIC faults) and asserts the failover
// contract on every one: exactly-once application on all surviving
// replicas, per-connection FIFO across failovers, pools drained to
// zero, and bit-identical double-run replay. On failure it shrinks the
// schedule to a minimal reproduction and prints it.
func TestResiliencePropertyFailover(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 25
	}
	const teams = 4
	// Strict FIFO needs degrade disabled, as in the NIC fault property
	// test: a degraded small message legally overtakes its queue.
	strict := ugnimachine.DefaultConfig()
	strict.DegradeThreshold = 0
	base := resilience.TeamConfig{
		Teams: teams, Msgs: 32, Size: 512,
		HB: 50 * sim.Microsecond, Horizon: 2 * sim.Millisecond,
		UGNI: &strict,
	}
	// Kills draw from plane B only, so every team keeps one replica:
	// the property is about recovery, not unrecoverable loss.
	killable := make([]int, teams)
	for i := range killable {
		killable[i] = teams + i
	}
	rcfg := fault.Resilience{
		Random: fault.Random{
			PEs: 2 * teams, Links: 8, Horizon: 300 * sim.Microsecond, Ops: 2,
			MaxWindow: 100 * sim.Microsecond,
		},
		Nodes: 2 * teams, Kills: 2, Killable: killable, Partitions: 1,
	}

	run := func(s fault.Schedule) (r resilience.TeamResult, leaked int64) {
		cfg := base
		cfg.Faults = &s
		live := mem.LiveDescriptors()
		r = resilience.RunTeam(cfg)
		return r, mem.LiveDescriptors() - live
	}
	fails := func(s fault.Schedule) (msgs []string) {
		defer func() {
			if p := recover(); p != nil {
				msgs = append(msgs, fmt.Sprintf("panic: %v", p))
			}
		}()
		cfg := base
		cfg.Faults = &s
		r, leaked := run(s)
		if err := r.Check(cfg); err != nil {
			msgs = append(msgs, err.Error())
		}
		if leaked != 0 {
			msgs = append(msgs, fmt.Sprintf("leaked %d pool descriptors", leaked))
		}
		if r2, _ := run(s); r2.Signature() != r.Signature() {
			msgs = append(msgs, "double run diverged")
		}
		return msgs
	}

	var stressedKill, stressedReroute int
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		s := fault.RandomResilienceSchedule(seed, rcfg)
		r, leaked := run(s)
		viol := []string(nil)
		cfg := base
		cfg.Faults = &s
		if err := r.Check(cfg); err != nil {
			viol = append(viol, err.Error())
		}
		if leaked != 0 {
			viol = append(viol, fmt.Sprintf("leaked %d pool descriptors", leaked))
		}
		if r2, _ := run(s); r2.Signature() != r.Signature() {
			viol = append(viol, "double run diverged")
		}
		if len(viol) > 0 {
			min := fault.Shrink(s, func(trial fault.Schedule) bool { return len(fails(trial)) > 0 })
			t.Fatalf("seed %d violates the failover contract:\n  %s\nminimal reproduction:\n%s",
				seed, strings.Join(viol, "\n  "), min)
		}
		if r.Kills > 0 {
			stressedKill++
		}
		if r.Reroutes > 0 {
			stressedReroute++
		}
	}
	// Vacuity guards: the property is meaningless if no schedule killed
	// anyone, or no kill ever caught a send in flight.
	if stressedKill == 0 {
		t.Fatal("no random schedule killed a node; the failover property test is vacuous")
	}
	if stressedReroute == 0 {
		t.Fatal("no kill warm-failed-over an in-flight send; the reroute path went untested")
	}
	t.Logf("%d/%d schedules killed nodes, %d rerouted in-flight sends", stressedKill, seeds, stressedReroute)
}

// ringPhase runs one ring-token workload on m starting at start and
// returns hops applied and the final time.
func ringPhase(m *charmgo.Machine, hops, size int, start sim.Time) (int, sim.Time) {
	n := m.NumPEs()
	applied := 0
	var hopH int
	hopH = m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
		applied++
		left := msg.Data.(int)
		if left > 0 {
			ctx.Send((ctx.PE()+1)%n, hopH, left-1, size)
		}
	})
	m.Inject(0, hopH, hops-1, size, start)
	end := m.Run()
	return applied, end
}

// TestMachineCheckpointRoundTrip proves the checkpoint/restore
// round-trip bit-identical on the full machine stack: phase 1 runs to
// quiescence and snapshots; a junk workload resumed from the same
// snapshot mutates freely and is discarded; rolling back (resuming the
// snapshot again) and replaying phase 2 must reproduce the probe stats
// and final time of the never-mutated continuation exactly.
func TestMachineCheckpointRoundTrip(t *testing.T) {
	sig := func(mutate bool) string {
		ks1 := charmgo.NewKernelStats()
		m1 := charmgo.NewMachine(charmgo.MachineConfig{
			Nodes: 8, CoresPerNode: 1, Probe: ks1,
		})
		h1, _ := ringPhase(m1, 32, 2048, 0)
		ck, err := m1.Checkpoint()
		if err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		m1.Close()
		if mutate {
			// Scribble over a resumed machine, then throw it away: the
			// rollback below must not see any of this.
			k := ck.Kernel
			mj := charmgo.NewMachine(charmgo.MachineConfig{
				Nodes: 8, CoresPerNode: 1, Resume: &k,
			})
			ringPhase(mj, 7, 64, k.Now)
			mj.Close()
		}
		ks2 := charmgo.NewKernelStats()
		k := ck.Kernel
		m2 := charmgo.NewMachine(charmgo.MachineConfig{
			Nodes: 8, CoresPerNode: 1, Probe: ks2, Resume: &k,
		})
		h2, end2 := ringPhase(m2, 32, 2048, k.Now)
		m2.Close()
		ck.Release()
		return fmt.Sprintf("h1=%d h2=%d end=%d p1={ev=%d bk=%d bt=%d pp=%d} p2={ev=%d bk=%d bt=%d pp=%d}",
			h1, h2, int64(end2),
			ks1.Events, ks1.Bookings, int64(ks1.BookedTime), ks1.PeakPending,
			ks2.Events, ks2.Bookings, int64(ks2.BookedTime), ks2.PeakPending)
	}

	live := mem.LiveDescriptors()
	base := sig(false)
	for _, mutate := range []bool{false, true} {
		if got := sig(mutate); got != base {
			t.Errorf("round trip differs at mutate=%v:\n--- base\n%s\n--- got\n%s",
				mutate, base, got)
		}
	}
	if got := mem.LiveDescriptors(); got != live {
		t.Errorf("round trips leaked %d pool descriptors", got-live)
	}
}
