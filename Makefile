GO ?= go

.PHONY: all test race race-sim race-flight tradeoffbench-smoke vet lint vet-json bounds bounds-json bounds-check bounds-smoke bench bench-json explore-bench contention-bench dpor-bench bench-gate bench-profile bench-append bench-dash bench-ci-baselines experiments flight-smoke fuzz fuzz-smoke clean

all: vet lint test

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Targeted race pass over the simulator: the work-stealing exploration
# engine and recycler are the repo's only scheduler-side concurrency, so
# this is the fast smoke CI runs on every push. The simtrace invocations
# run the DPOR coverage cross-check (sim.CrossCheckReduction) at smoke
# size on every config: reduced and unreduced exploration must visit the
# same set of Mazurkiewicz trace classes — see docs/exploration.md.
# The reduced run must also visit each class exactly once, so reduced
# equals classes on every line.
# The counter seeds are chosen so the random workloads draw increments,
# not just reads (the default seed happens to draw all-reads at n=2
# ops=2, which collapses to one trace class and checks nothing): seed 2
# on cas is full=56 reduced=16 classes=16, and at ops=3 full=953
# reduced=96 classes=96; seed 4 on farray is full=36 reduced=3 classes=3,
# and algorithm-a is full=210 reduced=6 (35x).
race-sim:
	$(GO) test -race ./internal/sim/...
	$(GO) run ./cmd/simtrace -object counter -impl cas -n 2 -ops 2 -seed 2 -crosscheck
	$(GO) run ./cmd/simtrace -object counter -impl cas -n 2 -ops 3 -seed 2 -crosscheck
	$(GO) run ./cmd/simtrace -object counter -impl farray -n 2 -ops 2 -seed 4 -crosscheck
	$(GO) run ./cmd/simtrace -object maxreg -impl algorithm-a -n 2 -ops 2 -crosscheck

# The benchmark's own smoke test. cmd/tradeoffbench is a nested module, so
# the root `go test ./...` never reaches it. Its modelcheck case checks every
# explored count against sim.ExploreReduced, and its build is what fails
# when the root module's go line is raised past the benchmark's.
tradeoffbench-smoke:
	GOWORK=off GOPROXY=off $(GO) -C cmd/tradeoffbench test ./...

# Targeted race pass over the observability layer: the collector's
# per-operation publication into shards merged by concurrent scrapes, the
# flight recorder's seqlock rings, hybrid clock, and monitor goroutine,
# plus the facade-level tests that scrape /metrics and /debug/history
# while a recorded workload runs.
race-flight:
	$(GO) test -race ./internal/obs/ ./internal/obs/flight/... ./internal/bench/flightlive/...
	$(GO) test -race -run 'TestFlight|TestBound' .

# Short live run with the flight recorder attached at the default 1/64
# sampling rate: a concurrent workload over all four object families
# through the public facade, failing on any detected linearizability
# violation or a drop rate that says the monitor cannot keep up. See
# docs/flight-recorder.md.
flight-smoke:
	$(GO) run ./cmd/tradeoff -run flight

# gofmt -l exits 0 even when it lists files, so fail explicitly on any
# output.
vet:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

# Step-accounting static analysis (modelstep, poolalloc, ctxflow,
# boundedloop, stepbound, atomicprotocol, padalign) — see
# docs/static-analysis.md. The second invocation also fails on
# tradeoffvet: annotations that no analyzer consulted. Also fails when
# the committed bound table is stale (bounds-check).
lint: bounds-check
	$(GO) run ./cmd/tradeoffvet -unused-suppressions ./...

# Machine-readable lint report for CI artifacts, plus the certified
# step-bound table (exit 1 if any declared bound fails to certify).
VET_JSON_OUT ?= tradeoffvet.json
vet-json:
	$(GO) run ./cmd/tradeoffvet -unused-suppressions -format json -out $(VET_JSON_OUT) ./...

# Declared-vs-derived step bound table (tradeoffvet -bounds).
bounds:
	$(GO) run ./cmd/tradeoffvet -bounds ./...

# Regenerate the committed machine-readable bound table that the runtime
# conformance layer embeds (internal/obs/bounds reads this at startup).
# Run after any //tradeoffvet:bound or cost-model change, and commit the
# result with the change that explains it.
bounds-json:
	$(GO) run ./cmd/tradeoffvet -bounds -format json -out dev/bounds/bounds.json ./...

# Freshness gate for the committed bound table: regenerate to a temp
# file and compare byte-for-byte (the generator is deterministic). Fails
# when an annotation change landed without `make bounds-json`, which
# would leave the runtime checking bounds the analyzer no longer
# certifies.
bounds-check:
	@tmp="$$(mktemp)"; \
	$(GO) run ./cmd/tradeoffvet -bounds -format json -out "$$tmp" ./... || { rm -f "$$tmp"; exit 1; }; \
	if ! cmp -s "$$tmp" dev/bounds/bounds.json; then \
		echo "dev/bounds/bounds.json is stale; run 'make bounds-json' and commit the result"; \
		rm -f "$$tmp"; exit 1; \
	fi; \
	rm -f "$$tmp"

# Live bound-conformance smoke: drive all four object families (plus the
# sharded/batched/adaptive counter backends) through the public facade
# and fail on any unexplained exceedance or worst-case violation, then
# round-trip the planted-violation exemplar (latch, dump, re-check).
bounds-smoke:
	$(GO) test -count=1 -run TestBound .

bench:
	$(GO) test -bench=. -benchmem ./...

# Fixed-seed throughput suite -> $(BENCH_JSON_OUT) (schema-validated; CI
# diffs the artifact across runs). Override the destination with
# BENCH_JSON_OUT=..., the workload with e.g.
# BENCH_JSON_FLAGS="-procs 4 -ops 500".
BENCH_JSON_OUT ?= BENCH_PR2.json
BENCH_JSON_FLAGS ?=
bench-json:
	$(GO) run ./cmd/benchjson -out $(BENCH_JSON_OUT) -pretty $(BENCH_JSON_FLAGS)
	$(GO) run ./cmd/benchjson -check $(BENCH_JSON_OUT)

# Exhaustive-exploration scaling suite (the E12 experiment): sequential
# sim.Explore vs ExploreParallel at 1, 2, 4, and 8 workers over the
# reference workloads -> $(EXPLORE_BENCH_OUT). Shrink the workload with
# e.g. EXPLORE_BENCH_FLAGS="-procs 2 -steps 2 -workers 1,2".
EXPLORE_BENCH_OUT ?= EXPLORE_BENCH.json
EXPLORE_BENCH_FLAGS ?=
explore-bench:
	$(GO) run ./cmd/benchjson -suite explore -out $(EXPLORE_BENCH_OUT) -pretty $(EXPLORE_BENCH_FLAGS)
	$(GO) run ./cmd/benchjson -check $(EXPLORE_BENCH_OUT)

# Flat-vs-sharded counter contention sweep (the E13 experiment): the CAS
# counter against the elastic sharded counter across writer counts and
# read mixes -> $(CONTENTION_BENCH_OUT). Shrink the workload with e.g.
# CONTENTION_BENCH_FLAGS="-workers 1,2 -ops 500".
CONTENTION_BENCH_OUT ?= CONTENTION_BENCH.json
CONTENTION_BENCH_FLAGS ?=
contention-bench:
	$(GO) run ./cmd/benchjson -suite contention -out $(CONTENTION_BENCH_OUT) -pretty $(CONTENTION_BENCH_FLAGS)
	$(GO) run ./cmd/benchjson -check $(CONTENTION_BENCH_OUT)

# Dynamic partial-order reduction suite (the E14 experiment): unreduced
# sim.Explore vs sleep-set sim.ExploreReduced vs parallel reduced engines
# over the reference workloads -> $(DPOR_BENCH_OUT). Shrink with e.g.
# DPOR_BENCH_FLAGS="-procs 2 -steps 2 -workers 1".
DPOR_BENCH_OUT ?= DPOR_BENCH.json
DPOR_BENCH_FLAGS ?=
dpor-bench:
	$(GO) run ./cmd/benchjson -suite dpor -out $(DPOR_BENCH_OUT) -pretty $(DPOR_BENCH_FLAGS)
	$(GO) run ./cmd/benchjson -check $(DPOR_BENCH_OUT)

# --- Continuous perf tracking (see docs/benchmarking.md) ---------------

# CI-sized workloads: must match the committed baselines in dev/bench/ci/
# exactly (suite, procs, ops, seed) or the gate fails on config mismatch.
BENCH_CI_THROUGHPUT_FLAGS = -procs 4 -ops 500
BENCH_CI_EXPLORE_FLAGS = -procs 2 -steps 2 -workers 1,2
BENCH_CI_CONTENTION_FLAGS = -workers 1,2,4,8 -ops 500
# The dpor suite gates one process AND one step beyond the explore smoke
# (3x3 vs 2x2): reduction is what makes the bigger model-check config
# affordable in CI, and gating it at that size keeps the claim honest.
BENCH_CI_DPOR_FLAGS = -procs 3 -steps 3 -workers 1,2

# Gate thresholds for CI-sized runs: wall-clock metrics are mostly noise
# at smoke size (the flight-overhead ratio was observed anywhere from
# 1.1x to 4.9x across back-to-back runs at -ops 500), so the ns and
# flight ceilings are very loose (10x) and only catch order-of-magnitude
# regressions; steps/op is the real signal but CAS retry counts are
# nondeterministic at GOMAXPROCS > 1, hence 0.25 rather than the 0.05
# local default. The execs/sec floor drops to 0.1 for the same reason (a
# millisecond-scale explore smoke swings several-fold under scheduler
# noise). Allocs keep their defaults — they are deterministic. Tight
# thresholds belong to full-size local runs (see docs/benchmarking.md).
BENCH_GATE_FLAGS ?= -gate-ns 9.0 -gate-steps 0.25 -gate-flight 9.0 -gate-bounds 9.0 -gate-execs 0.1

# Run both suites at the CI-sized config, gate each against its committed
# baseline, and emit machine-readable delta JSON. Exits nonzero on any
# thresholded regression. Deliberately NOT profiled: the CPU profiler and
# tracer perturb the flight-recorder overhead ratio (measured ~2.9x under
# capture vs ~1.2x clean), so the gated measurement stays unperturbed and
# profiles come from the separate bench-profile runs.
bench-gate:
	$(GO) run ./cmd/benchjson $(BENCH_CI_THROUGHPUT_FLAGS) \
		-gate dev/bench/ci/throughput.json $(BENCH_GATE_FLAGS) \
		-out bench-ci.json -delta bench-ci-delta.json
	$(GO) run ./cmd/benchjson -suite explore $(BENCH_CI_EXPLORE_FLAGS) \
		-gate dev/bench/ci/explore.json $(BENCH_GATE_FLAGS) \
		-out explore-ci.json -delta explore-ci-delta.json
	$(GO) run ./cmd/benchjson -suite contention $(BENCH_CI_CONTENTION_FLAGS) \
		-gate dev/bench/ci/contention.json $(BENCH_GATE_FLAGS) \
		-out contention-ci.json -delta contention-ci-delta.json
	$(GO) run ./cmd/benchjson -suite dpor $(BENCH_CI_DPOR_FLAGS) \
		-gate dev/bench/ci/dpor.json $(BENCH_GATE_FLAGS) \
		-out dpor-ci.json -delta dpor-ci-delta.json

# Profiled CI-sized runs of both suites: CPU pprof + execution trace per
# suite into bench-profiles/ (reports land there too, so the profile can
# be read against the numbers it produced).
bench-profile:
	$(GO) run ./cmd/benchjson $(BENCH_CI_THROUGHPUT_FLAGS) \
		-out bench-profiles/throughput.json -profile bench-profiles
	$(GO) run ./cmd/benchjson -suite explore $(BENCH_CI_EXPLORE_FLAGS) \
		-out bench-profiles/explore.json -profile bench-profiles
	$(GO) run ./cmd/benchjson -suite contention $(BENCH_CI_CONTENTION_FLAGS) \
		-out bench-profiles/contention.json -profile bench-profiles
	$(GO) run ./cmd/benchjson -suite dpor $(BENCH_CI_DPOR_FLAGS) \
		-out bench-profiles/dpor.json -profile bench-profiles

# Refresh the committed CI baselines after an intentional perf change
# (the "bless" step — commit the result together with the change that
# explains it).
bench-ci-baselines:
	$(GO) run ./cmd/benchjson $(BENCH_CI_THROUGHPUT_FLAGS) \
		-out dev/bench/ci/throughput.json -pretty -commit "$$(git rev-parse HEAD)"
	$(GO) run ./cmd/benchjson -suite explore $(BENCH_CI_EXPLORE_FLAGS) \
		-out dev/bench/ci/explore.json -pretty -commit "$$(git rev-parse HEAD)"
	$(GO) run ./cmd/benchjson -suite contention $(BENCH_CI_CONTENTION_FLAGS) \
		-out dev/bench/ci/contention.json -pretty -commit "$$(git rev-parse HEAD)"
	$(GO) run ./cmd/benchjson -suite dpor $(BENCH_CI_DPOR_FLAGS) \
		-out dev/bench/ci/dpor.json -pretty -commit "$$(git rev-parse HEAD)"

# Full-size runs of both suites, appended to the committed time-series at
# the current HEAD (refreshing the top-level baseline files so they stay
# in sync with the series), then re-render the dashboard.
bench-append:
	$(GO) run ./cmd/benchjson -out BENCH_PR2.json -pretty \
		-append dev/bench/data.json -commit "$$(git rev-parse HEAD)"
	$(GO) run ./cmd/benchjson -suite explore -out EXPLORE_BENCH.json -pretty \
		-append dev/bench/data.json -commit "$$(git rev-parse HEAD)"
	$(GO) run ./cmd/benchjson -suite contention -out CONTENTION_BENCH.json -pretty \
		-append dev/bench/data.json -commit "$$(git rev-parse HEAD)"
	$(GO) run ./cmd/benchjson -suite dpor -out DPOR_BENCH.json -pretty \
		-append dev/bench/data.json -commit "$$(git rev-parse HEAD)"
	$(MAKE) bench-dash

# Regenerate dev/bench/index.html + data.js from dev/bench/data.json.
bench-dash:
	$(GO) run ./cmd/benchdash

# Regenerate every table in EXPERIMENTS.md.
experiments:
	$(GO) run ./cmd/tradeoff -format markdown

# Fuzzing session over every fuzz target; FUZZTIME=5s for a quick smoke.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz FuzzMaxRegisterAgreement -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -fuzz FuzzMaxRegisterCheckerSoundness -fuzztime $(FUZZTIME) ./internal/history
	$(GO) test -fuzz FuzzCounterCheckerSoundness -fuzztime $(FUZZTIME) ./internal/history
	$(GO) test -fuzz FuzzSnapshotCheckerSoundness -fuzztime $(FUZZTIME) ./internal/history

# CI-sized fuzz pass.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=5s

clean:
	$(GO) clean -testcache
