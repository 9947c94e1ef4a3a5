GO       ?= go
PKGS     := ./...
FUZZTIME ?= 10s

.PHONY: build test race lint lint-fix lint-purity lint-units lint-budget fuzz-smoke bench bench-parallel bench-smoke rtcbench-test fleet-smoke trace-smoke scenario-smoke results-smoke frames-smoke timeline-smoke plot-smoke profile check

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

# Just the interprocedural purity prover (whole-module call graph): wall
# clock / unseeded rand / spawns in internal/ or reachable from the entry
# packages. See DESIGN.md §11.
lint-purity:
	$(GO) run ./cmd/rtclint -run transitivepurity $(PKGS)

# Just the dataflow pass: dimensional unit flow over internal/units types
# and name suffixes. See DESIGN.md §13.
lint-units:
	$(GO) run ./cmd/rtclint -run unitflow $(PKGS)

# CI smoke gate: the full suite over this module must finish inside the
# wall-clock budget, so whole-module analysis can't become the long pole.
RTCLINT_BUDGET_SECONDS ?= 120
lint-budget:
	RTCLINT_BUDGET_SECONDS=$(RTCLINT_BUDGET_SECONDS) \
		$(GO) test -run TestLintRuntimeBudget -v ./cmd/rtclint

# Each target is named explicitly: -fuzz=Fuzz is ambiguous in packages
# with more than one fuzz test (internal/rtp has two).
# FuzzSchedulerEquivalence compares the timer wheel against the test-only
# reference model of the scheduler (a plain slice scanned for the minimum);
# FuzzFECEquivalence compares the recycled FEC encoder and decoder against
# the map-based ones they replaced; FuzzSourceEquivalence the lazily seeded
# PRNG source against math/rand's; FuzzSummarizeEquivalence the reused,
# selecting Summarizer against the sort-based Summarize it replaced.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReportUnmarshal -fuzztime=$(FUZZTIME) ./internal/fb
	$(GO) test -run='^$$' -fuzz=FuzzPacketUnmarshal -fuzztime=$(FUZZTIME) ./internal/rtp
	$(GO) test -run='^$$' -fuzz=FuzzReassembler -fuzztime=$(FUZZTIME) ./internal/rtp
	$(GO) test -run='^$$' -fuzz=FuzzReadCSV -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzReadTrace -fuzztime=$(FUZZTIME) ./internal/obs
	$(GO) test -run='^$$' -fuzz=FuzzParseScenario -fuzztime=$(FUZZTIME) ./internal/scenario
	$(GO) test -run='^$$' -fuzz=FuzzSchedulerEquivalence -fuzztime=$(FUZZTIME) ./internal/simtime
	$(GO) test -run='^$$' -fuzz=FuzzFECEquivalence -fuzztime=$(FUZZTIME) ./internal/fec
	$(GO) test -run='^$$' -fuzz=FuzzSourceEquivalence -fuzztime=$(FUZZTIME) ./internal/stats
	$(GO) test -run='^$$' -fuzz=FuzzSummarizeEquivalence -fuzztime=$(FUZZTIME) ./internal/metrics
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

# Full results-snapshot gate. Regenerates every table and figure on a
# parallel runner and diffs the output against the committed snapshot:
# `go test` pins only Figure 1, so this is the gate that proves a change
# left every experiment number alone. An intended change regenerates the
# snapshot (and explains the diff) with:
#   go run ./cmd/benchdrop -exp all > docs/results_snapshot.txt
results-smoke:
	$(GO) run ./cmd/benchdrop -exp all -parallel 4 | diff - docs/results_snapshot.txt

# Per-frame ledger gate. results-smoke compares only aggregates; this
# prints one session's ledger frame by frame (temporal layers, FEC and
# NACK on, so every record field is exercised) and diffs it against the
# committed snapshot. An intended change regenerates it with:
#   go run ./cmd/rtcsim -out frames -tl 2 -fec 4 -nack > docs/frames_snapshot.csv
frames-smoke:
	$(GO) run ./cmd/rtcsim -out frames -tl 2 -fec 4 -nack | diff - docs/frames_snapshot.csv

# Timeline gate. rtcsim's -out timeline (the 100 ms capacity, estimate,
# encoder-target and queue samples of the default session) is output no
# other gate reads; this diffs it against the committed snapshot. An
# intended change regenerates it with:
#   go run ./cmd/rtcsim -out timeline > docs/timeline_snapshot.csv
timeline-smoke:
	$(GO) run ./cmd/rtcsim -out timeline | diff - docs/timeline_snapshot.csv

# Chart gate. rtcplot's ASCII charts are output no other gate reads; this
# renders the latency comparison, the rate chart and the CDF comparison
# of the default session and diffs them against the committed snapshot.
# An intended change regenerates it with:
#   { go run ./cmd/rtcplot -chart latency -compare && go run ./cmd/rtcplot -chart rates && \
#     go run ./cmd/rtcplot -chart cdf -compare; } > docs/plot_snapshot.txt
plot-smoke:
	{ $(GO) run ./cmd/rtcplot -chart latency -compare && \
		$(GO) run ./cmd/rtcplot -chart rates && \
		$(GO) run ./cmd/rtcplot -chart cdf -compare; } | diff - docs/plot_snapshot.txt

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x $(PKGS)

# Sequential vs worker-pool experiment runner; compare the two ns/op.
bench-parallel:
	$(GO) test -run='^$$' -bench='BenchmarkRunner(Sequential|Parallel)' -benchtime=3x ./internal/experiments

# Fast allocation- and complexity-regression gate for CI: run the
# allocation budget tests (AllocsPerRun gates per layer, the pacer's
# enqueue-and-pump cycle among them, a warm
# Summarizer and a reassembler reset with frames pending, a PRNG stream's
# register-free first 273 draws, the whole-session marginal-bytes gates with and without
# NACK, the Session's and the FrameRecord's size classes, the heap a kept
# shared-link Result retains per flow, the fleet's bytes per recycled session
# and the experiment runner's bytes per drop cell, per Figure 5 fec+nack
# cell (whose warm session init must build no trace), per Figure 7 shared-link cell and per Figure 9 SFU cell on a warm
# worker), the FEC encoder and decoder steady states, the complexity
# tests (scheduler Step at 16k vs 1k standing timers, cancel-and-replace
# at 4k vs 256 pending events, retransmission-buffer Store at 4096 vs 64
# packets, and FEC decoder OnMedia with 4096 vs 64 kept groups, each
# measured in one process and bounded at 2x, where an O(n) walk shows up
# at the size ratio), the seeding cost test (a PRNG reseed plus one draw against a
# reseed plus 607 draws, bounded at 0.25x, where eager seeding shows up),
# then run the hot-path micro-benchmarks at one iteration each as a
# compile-and-run check. Nothing compares ns/op across hosts:
# end-to-end speed is rtcbench's job (cmd/rtcbench/README.md).
bench-smoke:
	$(GO) test -run='AllocBudget|ZeroAlloc|AllocPerSession|AllocPerCell|SizeClass|RetainedBudget|CostIndependentOfDepth|CostIndependentOfCapacity|CostScalesWithDraws' -v \
		./internal/simtime ./internal/netem ./internal/rtp ./internal/fec \
		./internal/pacer ./internal/session ./internal/stats ./internal/metrics ./internal/fleet ./internal/experiments
	$(GO) test -run='^$$' -bench='BenchmarkScheduler|BenchmarkLinkSaturated|BenchmarkPacketizeReuse|BenchmarkRandStream' \
		-benchtime=1x -benchmem ./internal/simtime ./internal/netem ./internal/rtp ./internal/stats

# The benchmark's own tests: every rtcbench workload at a tiny size, with
# its replays and correctness checks. cmd/rtcbench is a module of its own,
# so the root `go test ./...` does not reach it.
rtcbench-test:
	cd cmd/rtcbench && $(GO) test ./...

# Fleet determinism + recycling-cost gate for CI. A small fleet must
# render byte-identical per-session CSV at 1 shard and 8 shards (the
# merge-order contract from DESIGN.md §12), and TestRecycledSessionCost
# must find a session run in a recycled shell no more than 1.2x the wall
# time of a fresh one, both measured in one process, so a per-session
# cost that grows with the shard cannot creep in.
fleet-smoke:
	mkdir -p build/fleet-smoke
	$(GO) run ./cmd/rtcfleet -sessions 200 -shards 1 -scenario mixed -duration 2s -out sessions \
		> build/fleet-smoke/shards1.csv
	$(GO) run ./cmd/rtcfleet -sessions 200 -shards 8 -scenario mixed -duration 2s -out sessions \
		> build/fleet-smoke/shards8.csv
	cmp build/fleet-smoke/shards1.csv build/fleet-smoke/shards8.csv
	$(GO) test -run='RecycledSessionCost' -v ./internal/fleet

# Capture CPU and heap profiles of a representative fleet run. Read with
# `go tool pprof build/profile/cpu.out` (or heap.out); the same flags
# exist on cmd/benchdrop for profiling a single experiment cell.
profile:
	mkdir -p build/profile
	$(GO) run ./cmd/rtcfleet -sessions 500 -duration 10s -shards 8 \
		-cpuprofile build/profile/cpu.out -memprofile build/profile/heap.out > /dev/null
	@echo "wrote build/profile/cpu.out and build/profile/heap.out"

check: build lint test race
