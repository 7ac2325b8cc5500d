# charmgo build/test entry points. Tier-1 is `make check`.

GO ?= go

.PHONY: build test test-race vet lint lint-audit lint-bench check fault-matrix resilience-matrix fuzz-smoke bench-smoke bench-json profile alloc-gate ns-gate

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check every internal package: the kernel and NIC model, the AMPI
# rank handoff (TestAMPIRaceClean), the double-run determinism harness
# (TestExperimentsDeterministic), and the point fan-out
# (TestWorkerCountInvariance, the only check that the process-wide
# mem.live descriptor counter stays atomic) all run under the race
# detector.
test-race:
	$(GO) test -race ./internal/...

vet:
	$(GO) vet ./...

# simlint: all thirteen analyzers (internal/analysis/simlint) — the five
# determinism/kernel-discipline rules, the CFG/dataflow ownership rules
# (poolleak, useafterrelease, hotpathalloc, closechain), and the
# typestate protocol rules (creditbalance, flightlifecycle,
# eventtotality, boundedretry). Zero findings and zero unexplained or
# unused suppressions required; see DESIGN.md §6 "Determinism rules" /
# "Ownership rules" / "Protocol typestate rules".
# `go run ./cmd/simlint -rules` prints the full rule book.
lint:
	$(GO) run ./cmd/simlint ./...

# List every //simlint:allow suppression and //simlint:proto binding in the
# tree with its audit-trail justification (fails if any lacks one, or if
# any //simlint: directive uses a verb outside the closed grammar).
lint-audit:
	$(GO) run ./cmd/simlint -audit ./...

# Time each analyzer over the module and fail if the checked-in budget
# (cmd/simlint/budget.json, ~4x a warm local run of ~0.15 s) is exceeded —
# the gate against an analyzer or a shared whole-program pass (call graph,
# typestate summaries) going super-linear.
lint-bench:
	$(GO) run ./cmd/simlint -bench ./...

check: build vet lint test test-race

# Fault-model matrix (DESIGN.md §7) under the race detector: the scenario
# runs (squeeze / tx-error / CQ back-pressure / combined, each double-run
# for bit-identical faulted replay), the ~200-seed random-schedule
# property test, and the faulted pool-drain gate.
fault-matrix:
	$(GO) test -race -count=1 -run 'TestFault' ./internal/bench/

# Node-failure recovery matrix (DESIGN.md §7) under the race detector:
# the failover scenario runs (single kill on both layers, kill during a
# rendezvous transfer, partition-heal, kill under both strategies — each
# double-run for bit-identical replay), the 200-seed random kill/partition
# failover property test (exactly-once delivery, per-connection FIFO,
# pools drained), the machine checkpoint round-trip proof, and the
# strategy unit tests.
resilience-matrix:
	$(GO) test -race -count=1 -run 'TestResilience|TestMachineCheckpointRoundTrip|TestFailoverPathsDrainPools' ./internal/bench/
	$(GO) test -race -count=1 ./internal/resilience/ ./internal/fault/

# Bounded fuzzing pass, one invocation per target (-fuzz must match
# exactly one): the gap-filling resource against its linear sorted-slice
# reference, the event engine against its sorted (time, sequence) slice
# reference, and the N-Queens subtree table against the plain solver and
# its mirror image. The checked-in seed corpora under
# internal/{sim,ssse}/testdata/fuzz also run in every plain `go test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzGapResource$$' -fuzztime 10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzEngine$$' -fuzztime 10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzSubtree$$' -fuzztime 10s ./internal/ssse/

# Quick microbenchmark pass over the kernel hot paths plus the end-to-end
# fig9a wall-clock benchmark.
bench-smoke:
	$(GO) test -run - -bench 'BenchmarkEngineScheduleFire|BenchmarkGapResourceAcquire' -benchtime 100000x ./internal/sim/
	$(GO) test -run - -bench BenchmarkFig9aWallClock -benchtime 5x .

# Full benchmark suite (figure wall-clock at 1 and 4 point fan-out
# workers + kernel microbenchmarks + recovery-strategy killed paths) as
# JSON, with the recorded pre-optimization baseline alongside. Each entry
# is the mean of 5 repeated runs with the sample stddev recorded. The
# output file tracks the allocation discipline, the point fan-out, and
# the resilience machinery (team failover and checkpoint rollback
# entries); the nsgate run afterwards fails the
# build if fig9a's fresh mean regresses more than 3 recorded stddevs over
# the checked-in PR 6 level.
bench-json:
	$(GO) run ./cmd/benchharness -benchjson > BENCH_PR10.json
	$(GO) run ./cmd/benchharness -nsgate BENCH_PR6.json
	@cat BENCH_PR10.json

# Standalone wall-clock regression gate (also run by bench-json): fig9a
# mean ns/op must stay within 3 recorded stddevs of the checked-in level.
ns-gate:
	$(GO) run ./cmd/benchharness -nsgate BENCH_PR6.json

# CPU and allocation profiles of the end-to-end fig9a benchmark, written
# to /tmp. Inspect with `go tool pprof -top /tmp/charmgo_cpu.prof` (or
# -sample_index=alloc_objects for /tmp/charmgo_mem.prof).
profile:
	$(GO) test -run - -bench BenchmarkFig9aWallClock -benchtime 100x \
		-cpuprofile /tmp/charmgo_cpu.prof -memprofile /tmp/charmgo_mem.prof .
	@echo "profiles written: /tmp/charmgo_cpu.prof /tmp/charmgo_mem.prof"

# CI allocation gate: fail if the fig9a wall-clock benchmark's allocs/op
# regresses more than 10% over the checked-in threshold.
alloc-gate:
	$(GO) run ./cmd/benchharness -allocgate .bench/fig9a_allocs_threshold
