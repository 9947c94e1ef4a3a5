GO       ?= go
PKGS     := ./...
FUZZTIME ?= 10s

.PHONY: build test race lint lint-fix lint-purity lint-units lint-baseline-check lint-budget fuzz-smoke bench bench-parallel bench-json bench-smoke rtcbench-test fleet-smoke trace-smoke scenario-smoke profile check

build:
	$(GO) build $(PKGS)

test:
	$(GO) test $(PKGS)

race:
	$(GO) test -race $(PKGS)

lint:
	$(GO) vet $(PKGS)
	$(GO) run ./cmd/rtclint $(PKGS)

# Apply every suggested fix (sorted-keys rewrites, stale-directive
# deletion), then report what remains.
lint-fix:
	$(GO) run ./cmd/rtclint -fix $(PKGS)

# Just the interprocedural provers (whole-module call graph): reachable
# wall clock / unseeded rand / spawns, package-level mutable state, and
# cross-shard scheduler/recorder capture. See DESIGN.md §11.
lint-purity:
	$(GO) run ./cmd/rtclint -run transitivepurity,globalmut,shardsafe $(PKGS)

# Just the two dataflow passes: dimensional unit flow over internal/units
# types and name suffixes, and the wrap-aware sequence-arithmetic prover.
# See DESIGN.md §13.
lint-units:
	$(GO) run ./cmd/rtclint -run unitflow,seqarith $(PKGS)

# Fail when the committed accepted-debt file records more findings than
# the tree still has: paid-down debt must shrink the baseline in the same
# change. The committed baseline is empty — the tree carries zero debt —
# so this also guards against anyone quietly introducing some.
lint-baseline-check:
	$(GO) run ./cmd/rtclint -baseline lint-baseline.json -baseline-check $(PKGS)

# CI smoke gate: the full suite over this module must finish inside the
# wall-clock budget, so whole-module analysis can't become the long pole.
RTCLINT_BUDGET_SECONDS ?= 120
lint-budget:
	RTCLINT_BUDGET_SECONDS=$(RTCLINT_BUDGET_SECONDS) \
		$(GO) test -run TestLintRuntimeBudget -v ./cmd/rtclint

# Each target is named explicitly: -fuzz=Fuzz is ambiguous in packages
# with more than one fuzz test (internal/rtp has two).
# FuzzSchedulerEquivalence compares the timer wheel against the test-only
# reference model of the scheduler (a plain slice scanned for the minimum).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReportUnmarshal -fuzztime=$(FUZZTIME) ./internal/fb
	$(GO) test -run='^$$' -fuzz=FuzzPacketUnmarshal -fuzztime=$(FUZZTIME) ./internal/rtp
	$(GO) test -run='^$$' -fuzz=FuzzReassembler -fuzztime=$(FUZZTIME) ./internal/rtp
	$(GO) test -run='^$$' -fuzz=FuzzReadCSV -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzReadCSV -fuzztime=$(FUZZTIME) ./internal/video
	$(GO) test -run='^$$' -fuzz=FuzzReadTrace -fuzztime=$(FUZZTIME) ./internal/obs
	$(GO) test -run='^$$' -fuzz=FuzzBaseline -fuzztime=$(FUZZTIME) ./internal/lint
	$(GO) test -run='^$$' -fuzz=FuzzParseScenario -fuzztime=$(FUZZTIME) ./internal/scenario
	$(GO) test -run='^$$' -fuzz=FuzzSchedulerEquivalence -fuzztime=$(FUZZTIME) ./internal/simtime
	$(GO) test -run='^$$' -fuzz=FuzzShellReuse -fuzztime=$(FUZZTIME) ./internal/session

# Record a short figure-1 session in all three export formats, then diff
# a same-seed re-run against the first recording: any divergence is a
# determinism regression. The Chrome JSON is the CI build artifact.
trace-smoke:
	mkdir -p build/trace-smoke
	$(GO) run ./cmd/rtctrace -exp figure1 -duration 5s -out build/trace-smoke/figure1.json
	$(GO) run ./cmd/rtctrace -exp figure1 -duration 5s -out build/trace-smoke/figure1.csv
	$(GO) run ./cmd/rtctrace -exp figure1 -duration 5s -out build/trace-smoke/figure1.txt
	$(GO) run ./cmd/rtctrace -exp figure1 -duration 5s -out build/trace-smoke/rerun.csv
	$(GO) run ./cmd/rtctrace -diff build/trace-smoke/figure1.csv build/trace-smoke/rerun.csv
	$(GO) run ./cmd/rtctrace -diff build/trace-smoke/figure1.json build/trace-smoke/figure1.csv

# Scenario-corpus determinism gate. Enumerates the preset registry, runs
# a small preset x controller mini-sweep on a parallel runner, and diffs
# the result against the committed snapshot: a mismatch means a preset,
# the sweep harness, or the parallel merge changed bytes. Regenerate the
# snapshot (and review the diff) with:
#   go run ./cmd/benchdrop -exp scenarios -scenario standard,lte,oscillating \
#     -seeds 2 -duration 10s > docs/scenario_snapshot.txt
scenario-smoke:
	mkdir -p build/scenario-smoke
	$(GO) run ./cmd/benchdrop -list-scenarios
	$(GO) run ./cmd/benchdrop -exp scenarios -scenario standard,lte,oscillating \
		-seeds 2 -duration 10s -parallel 4 > build/scenario-smoke/sweep.txt
	diff docs/scenario_snapshot.txt build/scenario-smoke/sweep.txt

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x $(PKGS)

# Sequential vs worker-pool experiment runner; compare the two ns/op.
bench-parallel:
	$(GO) test -run='^$$' -bench='BenchmarkRunner(Sequential|Parallel)' -benchtime=3x ./internal/experiments

# BENCHJSON_OUT is the committed baseline for the hot-path packages; see
# EXPERIMENTS.md for the before/after history.
BENCHJSON_OUT ?= BENCH_10.json

# Re-measure the hot-path benchmark suite with allocation columns and
# write the canonical JSON baseline. Run on a quiet machine; commit the
# result when the numbers move for a good reason.
bench-json:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=0.3s \
		. ./internal/simtime ./internal/netem ./internal/rtp ./internal/fleet \
		| $(GO) run ./cmd/benchjson -o $(BENCHJSON_OUT)

# Fast allocation-regression gate for CI: run the allocation budget tests
# (AllocsPerRun gates per layer, the whole-session marginal-bytes gates
# with and without NACK, and the fleet's bytes per recycled session),
# compile-check the micro-benchmarks at one iteration each, then
# measure the scheduler microbenchmarks long enough to gate their ns/op
# against the newest committed BENCH_<n>.json baseline. The scheduler
# benchmarks keep their "/wheel" sub-benchmark names so they still match
# the baseline's entries; a gate that matches nothing fails. The 2.5x
# ceiling is not a precision gate — it exists to catch complexity
# regressions (an accidental O(n) scan in the wheel shows up as 10-100x,
# far above any machine-to-machine noise).
bench-smoke:
	$(GO) test -run='AllocBudget|ZeroAlloc|AllocPerSession' -v ./internal/simtime ./internal/netem ./internal/rtp \
		./internal/session ./internal/stats ./internal/fleet
	$(GO) test -run='^$$' -bench='BenchmarkSchedulerStep|BenchmarkLinkSaturated|BenchmarkPacketizeReuse' \
		-benchtime=1x -benchmem ./internal/simtime ./internal/netem ./internal/rtp
	$(GO) test -run='^$$' -bench='BenchmarkSchedulerMixedHorizon|BenchmarkSchedulerCancel' \
		-benchtime=0.1s -benchmem ./internal/simtime \
		| $(GO) run ./cmd/benchjson -against auto -max-ns-ratio 2.5

# The benchmark's own tests: every rtcbench workload at a tiny size, with
# its replays and correctness checks. cmd/rtcbench is a module of its own,
# so the root `go test ./...` does not reach it.
rtcbench-test:
	cd cmd/rtcbench && $(GO) test ./...

# Fleet determinism + throughput gate for CI. A small fleet must render
# byte-identical per-session CSV at 1 shard and 8 shards (the merge-order
# contract from DESIGN.md §12), and BenchmarkFleet must stay within 2x of
# the committed baseline so sharding overhead can't silently regress.
fleet-smoke:
	mkdir -p build/fleet-smoke
	$(GO) run ./cmd/rtcfleet -sessions 200 -shards 1 -scenario mixed -duration 2s -out sessions \
		> build/fleet-smoke/shards1.csv
	$(GO) run ./cmd/rtcfleet -sessions 200 -shards 8 -scenario mixed -duration 2s -out sessions \
		> build/fleet-smoke/shards8.csv
	cmp build/fleet-smoke/shards1.csv build/fleet-smoke/shards8.csv
	$(GO) test -run='^$$' -bench=BenchmarkFleet -benchmem -benchtime=1x ./internal/fleet \
		| $(GO) run ./cmd/benchjson -against auto -max-ns-ratio 2.0

# Capture CPU and heap profiles of a representative fleet run. Read with
# `go tool pprof build/profile/cpu.out` (or heap.out); the same flags
# exist on cmd/benchdrop for profiling a single experiment cell.
profile:
	mkdir -p build/profile
	$(GO) run ./cmd/rtcfleet -sessions 500 -duration 10s -shards 8 \
		-cpuprofile build/profile/cpu.out -memprofile build/profile/heap.out > /dev/null
	@echo "wrote build/profile/cpu.out and build/profile/heap.out"

check: build lint test race
