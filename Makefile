# Targets mirror .github/workflows/ci.yml so local runs match the
# pipeline exactly.

GO ?= go

.PHONY: all build test bench lint fmt serve-smoke cluster-smoke chaos-smoke obs-smoke profile perfbench

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# The short benchmark smoke CI runs, plus a perf record from benchtab
# and the alloc-regression diff against the committed seed baseline.
bench:
	$(GO) test -run '^$$' -bench 'MatMulInto128|MulDenseInto' -benchtime 1x ./internal/mat/ ./internal/sparse/
	$(GO) test -run '^$$' -bench DDIGCNTraining -benchtime 1x -timeout 30m .
	$(GO) run ./cmd/benchtab -table 1 -trainbench -json BENCH_local.json
	$(GO) run ./cmd/benchdiff BENCH_seed.json BENCH_local.json
	$(GO) run ./cmd/benchdiff BENCH_baseline.json BENCH_local.json

lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

# Train a tiny model, round-trip it through a snapshot, boot the HTTP
# server on an ephemeral port, smoke every endpoint and record a
# servebench JSON — the same script CI runs.
serve-smoke:
	./scripts/serve-smoke.sh

# Boot 1 dssddi-router + 3 dssddi-serve backends, smoke the fleet
# (sticky routing, shard-local registry, coordinated rolling reload
# under -strict load) and record BENCH_cluster.json — the same script
# the CI "cluster" job runs. The >= 2x scaling gate needs >= 3 cores.
cluster-smoke:
	./scripts/cluster-smoke.sh

# Observability end to end: 1 router + 2 backends at 100% trace
# sampling under mixed load, every response echoing X-Request-Id, a
# known request correlated into both tiers' /debug/tracez with stage
# spans summing to its latency, and both Prometheus expositions
# round-tripped through the strict in-repo parser — the same script
# the CI "obs" job runs.
obs-smoke:
	./scripts/obs-smoke.sh

# Durability + overload under fire: WAL-backed backend behind a
# fault-injecting TCP proxy, kill -9 + crash recovery mid-workload
# (zero lost registrations, bitwise-identical answers, bounded error
# rate), plus an admission-control shed check. Records
# BENCH_chaos.json — the same script the CI "chaos" job runs.
chaos-smoke:
	./scripts/chaos-smoke.sh

# The repo benchmark declared in BENCHMARK.json: builds perfbench and
# the programs it drives into .bench_build/, then runs each workload
# for 30 s at SEED and prints its metrics as JSON.
SEED ?= 1
perfbench:
	for w in cold-f64 cold-f32 fleet-mix; do \
		bash perfbench/run.sh --workload $$w --seed $(SEED) --seconds 30 || exit 1; \
	done

# CPU + heap profiles of the serve hot path: one full cold suggest
# request (handler -> batcher -> fused scoring -> encode) per
# iteration. Inspect with `go tool pprof cpu.pprof` / `mem.pprof`.
profile:
	$(GO) test -run '^$$' -bench ServeSuggestCold -benchtime 3s \
		-cpuprofile cpu.pprof -memprofile mem.pprof ./internal/serve/
	@echo "profiles written: cpu.pprof mem.pprof"

fmt:
	gofmt -w .
