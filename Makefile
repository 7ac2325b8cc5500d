# charmgo build/test entry points. Tier-1 is `make check`.

GO ?= go

.PHONY: build test test-race vet lint lint-audit lint-bench check fault-matrix shard-matrix resilience-matrix fuzz-smoke bench-smoke bench-json profile profile-shard alloc-gate ns-gate

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check every internal package: the kernel and NIC model, the AMPI
# rank handoff (TestAMPIRaceClean), and the double-run determinism harness
# (TestExperimentsDeterministic) all run under the race detector.
test-race:
	$(GO) test -race ./internal/...

vet:
	$(GO) vet ./...

# simlint: all seventeen analyzers (internal/analysis/simlint) — the five
# determinism/kernel-discipline rules, the CFG/dataflow ownership rules
# (poolleak, useafterrelease, hotpathalloc, closechain), the
# points-to shard-ownership rules (shardescape, atomicshared,
# singlewriter, windowsend), and the typestate protocol rules
# (creditbalance, flightlifecycle, eventtotality, boundedretry). Zero
# findings and zero unexplained or unused suppressions required; see
# DESIGN.md §6 "Determinism rules" / "Ownership rules" /
# "Shard-ownership rules" / "Protocol typestate rules".
# `go run ./cmd/simlint -rules` prints the full rule book.
lint:
	$(GO) run ./cmd/simlint ./...

# List every //simlint:allow suppression in the tree with its audit-trail
# justification (fails if any lacks one).
lint-audit:
	$(GO) run ./cmd/simlint -audit ./...

# Time each analyzer over the module and fail if the checked-in budget
# (cmd/simlint/budget.json, ~4x a warm local run) is exceeded — the gate
# against an analyzer or the points-to solve going quadratic.
lint-bench:
	$(GO) run ./cmd/simlint -bench ./...

check: build vet lint test test-race

# Fault-model matrix (DESIGN.md §7) under the race detector: the scenario
# runs (squeeze / tx-error / CQ back-pressure / combined, each double-run
# for bit-identical faulted replay), the ~200-seed random-schedule
# property test, and the faulted pool-drain gate.
fault-matrix:
	$(GO) test -race -count=1 -run 'TestFault' ./internal/bench/

# Shard matrix (DESIGN.md §2.3–2.4) under the race detector: the
# parallel-window halo workload at shards 1/2/4 and at 108K and 1M ranks
# against its lockstep oracle, the point fan-out worker invariance, and
# the network-level shard-partition properties (route-cache fill hammer,
# 50-seed per-link occupancy parity, cross-traffic conservation).
shard-matrix:
	$(GO) test -race -count=1 -run 'TestWorkerCountInvariance|TestShardScale' ./internal/bench/
	$(GO) test -race -count=1 -run 'TestLinkOccupancyParity|TestLinkTrafficConservation|TestRouteFillRace' ./internal/gemini/

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
# reference, and the event engine against its sorted (time, sequence)
# slice reference. The checked-in seed corpora under
# internal/sim/testdata/fuzz also run in every plain `go test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzGapResource$$' -fuzztime 10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzEngine$$' -fuzztime 10s ./internal/sim/

# Quick microbenchmark pass over the kernel hot paths plus the end-to-end
# fig9a wall-clock benchmark.
bench-smoke:
	$(GO) test -run - -bench 'BenchmarkEngineScheduleFire|BenchmarkGapResourceAcquire' -benchtime 100000x ./internal/sim/
	$(GO) test -run - -bench BenchmarkFig9aWallClock -benchtime 5x .

# Full benchmark suite (figure wall-clock at 1 and 4 point fan-out
# workers + parallel-window halo scaling + kernel microbenchmarks +
# recovery-strategy killed paths) as JSON, with the recorded
# pre-optimization baseline alongside. Each entry is the mean of 5
# repeated runs with the sample stddev recorded. The output file tracks
# the allocation discipline, the point fan-out, the shard-local network
# model (shardscale entries), and the
# resilience machinery (team failover and checkpoint rollback
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

# CPU and allocation profiles of the parallel-window shard-scaling
# benchmark (108K-rank halo workload, worker-per-shard), written to /tmp.
# How to read them:
#   go tool pprof -top /tmp/charmgo_shard_cpu.prof          # hot functions
#   go tool pprof -peek applyReservations /tmp/charmgo_shard_cpu.prof
#   go tool pprof -sample_index=alloc_objects -top /tmp/charmgo_shard_mem.prof
# Barrier cost shows up under ShardedEngine.RunParallel /
# mergeOutboxes / Network.applyReservations; per-shard event work under
# Engine.RunUntil. A healthy profile has the barrier functions in the
# low single-digit percent — growth there means cross-shard traffic is
# defeating the shard-local booking fast path.
profile-shard:
	$(GO) test -run - -bench BenchmarkShardScale -benchtime 20x \
		-cpuprofile /tmp/charmgo_shard_cpu.prof -memprofile /tmp/charmgo_shard_mem.prof \
		./internal/bench/
	@echo "profiles written: /tmp/charmgo_shard_cpu.prof /tmp/charmgo_shard_mem.prof"

# CI allocation gate: fail if the fig9a wall-clock benchmark's allocs/op
# regresses more than 10% over the checked-in threshold.
alloc-gate:
	$(GO) run ./cmd/benchharness -allocgate .bench/fig9a_allocs_threshold
