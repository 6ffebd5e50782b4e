GO ?= go

.PHONY: check fmt vet build test race bench-smoke bench-e2e bench-e2e-smoke bench-pairs fuzz-smoke cover-net staticcheck profile soak soak-smoke fct-smoke

check: fmt vet staticcheck build test race fuzz-smoke soak-smoke fct-smoke cover-net bench-e2e-smoke

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# staticcheck runs honnef.co/go/tools when a binary is on PATH. In CI
# (where the workflow installs a pinned version) a missing binary is a
# hard failure; locally it degrades to a skip, since the toolchain image
# does not bake it in and fetching it would need the network.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif [ -n "$$CI" ]; then \
		echo "staticcheck is a required CI gate but is not installed"; exit 1; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race covers the packages with mutable queue/scheduler/network state,
# the compiler back end, whose per-program codelet mappings are shared by
# every target compiled from one IR (codegen's seven-goroutine test), and
# internal/banzai, the one package that starts goroutines (sharded.go's
# per-shard workers, driven by its sharded differential tests); CI runs
# this target.
race:
	$(GO) test -race ./internal/synth/... ./internal/codegen/... ./internal/banzai/... ./internal/pifo/... ./internal/switchsim/... ./internal/netsim/...

# fuzz-smoke replays the checked-in seed corpora (testdata/fuzz/...)
# through every native fuzz target as ordinary tests — deterministic, so
# CI can run it. Use `go test -fuzz <name>` in the package for real
# fuzzing; minimized crashes land in the corpus directories.
fuzz-smoke:
	$(GO) test ./internal/banzai -run 'FuzzOptimizerDifferential' -count=1
	$(GO) test ./internal/netsim -run 'FuzzNetTopology|FuzzNetFaults|FuzzReliableTransport' -count=1

# cover-net gates the switch + network simulator + telemetry layers:
# their combined statement coverage (from their own package tests) must
# stay >= 80%.
COVER_MIN ?= 80
cover-net:
	$(GO) test -coverprofile=cover-net.out \
		-coverpkg=./internal/switchsim/...,./internal/netsim/...,./internal/telemetry/... \
		./internal/switchsim/... ./internal/netsim/... ./internal/telemetry/...
	@total=$$($(GO) tool cover -func=cover-net.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	rm -f cover-net.out; \
	echo "switchsim+netsim+telemetry combined statement coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v m="$(COVER_MIN)" 'BEGIN { exit (t+0 < m+0) ? 1 : 0 }' \
		|| { echo "coverage dropped below $(COVER_MIN)%"; exit 1; }

# bench-smoke executes every paper-table benchmark (bench_test.go) once so
# benchmark code can't bitrot; CI runs this. Packet rates are bench-e2e's.
bench-smoke:
	$(GO) test . -run xxx -bench . -benchtime 1x

# bench-e2e runs the repository's benchmark (BENCHMARK.json, bench/): five
# workloads, the gated end-to-end metrics, ~3 minutes; call bench/run.sh
# directly to pick a workload, a seed or a traced run.
bench-e2e:
	bash bench/run.sh

# bench-e2e-smoke runs every benchmark workload at 1/100 scale with all
# its correctness checks (~3 s). bench/ is a module of its own that the
# root module's `go test ./...` does not see; this keeps it from rotting.
bench-e2e-smoke:
	$(GO) test -C bench ./...

# bench-pairs is how a claimed gain is shown: the parent revision and the
# working tree, each built once, run alternately on one workload, with
# medians, quartiles, pair wins and the parent's inter-quartile spread
# per end-to-end metric (scripts/bench-pairs.sh; ~25 s per run, two runs
# per pair). Run it on seed 1 and again on the held-out seed 7.
SEED ?= 1
N ?= 10
bench-pairs:
	@test -n "$(PARENT)" -a -n "$(WORKLOAD)" || { \
		echo "usage: make bench-pairs PARENT=<rev> WORKLOAD=<name> [SEED=1] [N=10]"; exit 2; }
	bash scripts/bench-pairs.sh "$(PARENT)" "$(WORKLOAD)" "$(SEED)" "$(N)"

# soak runs the full chaos soak: 1000 seeded random gray-failure
# schedules (reorder, duplication, flaps, restarts, crashes, corruption)
# over small fabrics, each tick checked against the conservation and
# pool-leak oracles, with sampled byte-identical replays. SOAK_RUNS
# scales it.
SOAK_RUNS ?= 1000
soak:
	$(GO) run ./cmd/paper-eval -soak $(SOAK_RUNS)

# soak-smoke is the time-budgeted slice CI runs: enough schedules to
# cover every fault kind, both transport modes and all three routings.
soak-smoke:
	$(GO) test ./internal/netsim -run 'TestChaosSoakSmoke' -count=1

# fct-smoke is the fat-tree slice CI runs: the k=4 tick-vs-event
# differential plus the end-to-end -fct report at its default k=8 (128
# hosts, 80 switches; under a second since compiling stopped dominating
# it), which itself asserts the event and polled cores agree on totals.
fct-smoke:
	$(GO) test ./internal/netsim -run 'TestEventCoreDifferentialFatTree|TestFatTreeFCTConservation' -count=1
	$(GO) run ./cmd/paper-eval -fct

# profile writes a CPU profile of the leaf-spine network experiment;
# inspect with `go tool pprof cpu.prof`.
profile:
	$(GO) run ./cmd/paper-eval -pprof cpu.prof -net
	@echo "wrote cpu.prof; inspect with: $(GO) tool pprof cpu.prof"
