# Developer entry points for the monoclass reproduction.
#
#   make check             build + vet + full test suite
#   make race              race-detector pass over the whole module
#   make conformance       quick differential/metamorphic engine run (CI gate)
#   make conformance-long  soak run: more trials, larger instances
#   make conformance-mutate self-test: injected bug must be caught
#   make bench-domkernel   regenerate BENCH_domkernel.json (kernel vs scalar)
#   make bench-maxflow     regenerate BENCH_maxflow.json (flow-solver engine)
#   make bench-classify    regenerate BENCH_classify.json (anchor index vs scalar)
#   make bench-serve       regenerate BENCH_serve.json (serving layer loadgen)
#   make bench-shard       sharded-fleet loadgen smoke (replica rows only)
#   make bench-online      regenerate BENCH_online.json (incremental vs retrain)
#   make bench-problem     regenerate BENCH_problem.json (prepared-problem lifecycle)
#   make profile-prepare   CPU+heap profile of the prepare-stage sweep (pprof files)
#   make bench-e2e-test    the end-to-end benchmark module's own tests (perfbench/)
#   make ci-smoke          one warm-started exact prepare under the race detector
#   make fuzz-online       short fuzz pass over the online delta intake
#   make fuzz-problem      short fuzz pass over problem deserialization
#   make serve-stress      long hot-swap/soak stress of the serving layer
#   make verify            everything CI gates on, in order
#   make verify-full       verify + the benchmark regenerations

GO ?= go

.PHONY: all build vet test race conformance conformance-long conformance-mutate bench-domkernel bench-maxflow bench-classify bench-serve bench-shard bench-online bench-problem profile-prepare bench-e2e-test ci-smoke fuzz-online fuzz-problem serve-stress verify verify-full clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: build
	$(GO) test ./...

check: build vet test

race:
	$(GO) test -race ./...

# Quick conformance gate: 200 seeded trials through every redundant
# solver pair and metamorphic invariant, under the race detector.
# Divergences shrink into internal/conformance/testdata/repro-*.json.
conformance:
	$(GO) test -race -run 'TestConformance|TestReplayRepros|TestGoldenFigure1' -count=1 -v ./internal/conformance

# Soak mode: 2000 trials on the enlarged size schedule.
conformance-long:
	CONFORMANCE_TRIALS=2000 CONFORMANCE_LONG=1 $(GO) test -race -run TestConformance -count=1 -v -timeout 30m ./internal/conformance

# Harness self-test: build a deliberately off-by-one solver copy and
# assert the engine detects, shrinks, and persists a replayable repro.
conformance-mutate:
	$(GO) test -tags conformance_mutation -run TestMutation -count=1 ./internal/conformance

# Machine-readable before/after numbers for the bit-packed dominance
# kernel (cmd/benchtab -domkernel). Takes ~30s; add QUICK=1 for a
# seconds-scale smoke run that overwrites nothing.
bench-domkernel:
ifdef QUICK
	$(GO) run ./cmd/benchtab -domkernel /tmp/BENCH_domkernel.quick.json -seed 42 -quick
else
	$(GO) run ./cmd/benchtab -domkernel BENCH_domkernel.json -seed 42
endif

# Machine-readable numbers for the CSR flow-solver engine: every
# registered max-flow solver on passive-construction networks and
# worst-case families, plus the workspace zero-allocation re-solve
# check (cmd/benchtab -maxflow). Takes ~1min; add QUICK=1 for a
# seconds-scale smoke run that overwrites nothing.
bench-maxflow:
ifdef QUICK
	$(GO) run ./cmd/benchtab -maxflow /tmp/BENCH_maxflow.quick.json -seed 42 -quick
else
	$(GO) run ./cmd/benchtab -maxflow BENCH_maxflow.json -seed 42
endif

# Machine-readable numbers for the anchor classification index: the
# scalar anchor scan vs the indexed per-point path vs the batch sweep
# kernel across (queries, dimension, anchors) cells (cmd/benchtab
# -classify). Takes ~30s; add QUICK=1 for a seconds-scale smoke run
# that overwrites nothing.
bench-classify:
ifdef QUICK
	$(GO) run ./cmd/benchtab -classify /tmp/BENCH_classify.quick.json -seed 42 -quick
else
	$(GO) run ./cmd/benchtab -classify BENCH_classify.json -seed 42
endif

# Throughput/latency table for the serving layer across batching
# configurations (cmd/loadgen). Takes ~1min; add QUICK=1 for a
# seconds-scale smoke run that overwrites nothing.
bench-serve:
ifdef QUICK
	$(GO) run ./cmd/loadgen -out /tmp/BENCH_serve.quick.json -seed 42 -quick
else
	$(GO) run ./cmd/loadgen -out BENCH_serve.json -seed 42
endif

# Sharded serving smoke: replica-fleet rows only (bN+rN configs drive
# an in-process fleet behind the consistent-hash router), plus the
# shard package under the race detector. Never overwrites
# BENCH_serve.json — regenerate that with `make bench-serve`, whose
# default configs include the replica rows.
bench-shard:
	$(GO) test -race -count=1 ./internal/shard
	$(GO) run ./cmd/loadgen -out /tmp/BENCH_shard.quick.json -seed 42 -quick -configs b64+r2,b64@2+r3

# Amortized per-delta cost of the incremental learner (exact and lazy
# rebuild cadences) against full retrains on the same delta trace
# (cmd/benchtab -online). Takes ~2min; add QUICK=1 for a seconds-scale
# smoke run that overwrites nothing.
bench-online:
ifdef QUICK
	$(GO) run ./cmd/benchtab -online /tmp/BENCH_online.quick.json -seed 42 -quick
else
	$(GO) run ./cmd/benchtab -online BENCH_online.json -seed 42
endif

# Prepared-problem lifecycle sweep: prepare / first-solve / warm
# re-solve wall times, per-stage prepare timings (matrix / decompose /
# network), and peak memory across n up to 10⁶ and the three matrix
# modes — dense rows now reach n=65536 (the raised exact-decomposition
# limit, 1 GiB matrix) — plus the dense-guard refusal (cmd/benchtab
# -problem). Takes a few minutes; add QUICK=1 for a seconds-scale
# smoke run that overwrites nothing.
bench-problem:
ifdef QUICK
	$(GO) run ./cmd/benchtab -problem /tmp/BENCH_problem.quick.json -seed 42 -quick
else
	$(GO) run ./cmd/benchtab -problem BENCH_problem.json -seed 42
endif

# Profile where prepare time goes: run the lifecycle sweep (quick
# schedule) with CPU and heap profiles enabled, then inspect with
# `go tool pprof prepare.cpu.pprof`.
profile-prepare:
	$(GO) run ./cmd/benchtab -problem /tmp/BENCH_problem.profile.json -seed 42 -quick \
		-cpuprofile prepare.cpu.pprof -memprofile prepare.mem.pprof
	@echo "wrote prepare.cpu.pprof and prepare.mem.pprof (go tool pprof <file>)"

# The end-to-end benchmark (perfbench/) is its own Go module, so the
# root `go test ./...` skips it. Run its tests under the environment
# perfbench/run.sh builds with; caches stay in .bench_build/. ~20s.
BENCH_BUILD := $(CURDIR)/.bench_build
bench-e2e-test:
	mkdir -p $(BENCH_BUILD)/tmp
	cd perfbench && GOCACHE=$(BENCH_BUILD)/gocache GOTMPDIR=$(BENCH_BUILD)/tmp \
		GOPATH=$(BENCH_BUILD)/gopath GOTOOLCHAIN=local GOFLAGS=-mod=mod \
		GOWORK=off GOPROXY=off $(GO) test -count=1 ./...

# CI quick gate: one warm-started exact-decomposition prepare (dense,
# d=3) under the race detector, asserting the solve matches the legacy
# passive path, plus racing first uses of a deferred decomposition
# (direct, and through the online updater's adopted Problem).
ci-smoke:
	$(GO) test -race -run 'TestPrepareWarmStartSmoke|TestLazyDecompositionConcurrentFirstUse' -count=1 -v ./internal/problem
	$(GO) test -race -run TestProblemDecompositionSurvivesDeltas -count=1 -v ./internal/online

# Coverage-guided fuzz of the online updater's byte-decoded delta
# traces: no panics, contract-only rejections, retrain equivalence.
fuzz-online:
	$(GO) test -run FuzzOnlineTrace -fuzz FuzzOnlineTrace -fuzztime 30s ./internal/online

# Coverage-guided fuzz of problem deserialization: arbitrary bytes
# through Read must reject cleanly or yield a solvable problem that
# survives a second round trip bit-for-bit.
fuzz-problem:
	$(GO) test -run FuzzProblemRoundTrip -fuzz FuzzProblemRoundTrip -fuzztime 30s ./internal/problem

# Heavier serving-layer adversarial pass: the hot-swap storm and HTTP
# soak tests with boosted iteration counts, under the race detector.
serve-stress:
	SERVE_STRESS_N=50000 SERVE_SOAK_SECONDS=10 $(GO) test -race -run 'TestHotSwapStorm|TestHTTPSoak' -count=1 -v -timeout 20m ./internal/serve

verify: build vet test race conformance conformance-mutate

verify-full: verify bench-domkernel bench-maxflow bench-classify bench-serve bench-online bench-problem

clean:
	$(GO) clean ./...
