// Command rtcbench is the simulator's benchmark. It measures the
// simulator from outside, through public entry points only, on four
// closed-loop workloads generated in-process from a seed, all on one
// processor:
//
//   - session-drop: the paper's Figure 1 drop session, 128 sessions of
//     30 s per batch through fleet.Run;
//   - fleet-mixed: rtcfleet's mixed drop/LTE/WiFi population with loss
//     and NACK, 1,500 sessions of 2 s per batch through fleet.Run;
//   - shared-16flow: 24 runs per batch of 16 staggered adaptive flows on
//     one 24 -> 8 Mbps bottleneck through session.RunShared;
//   - figure-suite: the thirteen experiments of `benchdrop -exp all` at
//     seeds seed..seed+4 on an experiments.Runner.
//
// A timed run sets the workload up (inputs plus one warm-up unit), then
// alternates fixed-work batches, which carry no instrumentation, with
// fresh setups until the measuring time is spent. It reports batch_s, the
// fastest batch, and the medians of setup_s, alloc_mb_per_batch and
// live_heap_mb. A traced run rebuilds a sample of the workload three
// times — untraced, with a flight recorder attached (the census), and
// with span-recording wrappers around each layer (the traced pass) —
// checks that all three agree, and replays the captured inputs of the
// layers the public API gives no boundary for. It reports per-layer costs
// and a ledger that splits the traced time into layers plus an
// unattributed rest.
//
// Every batch is checked: its digest must equal the run's first batch and
// the golden digest in testdata/goldens.txt, and at seed 1 the figure
// suite must reproduce docs/results_snapshot.txt byte for byte.
//
// Usage, from the repository root:
//
//	bash cmd/rtcbench/run.sh --workload session-drop --seed 1 --seconds 20 --trace 0
//	bash cmd/rtcbench/run.sh -seed 1 -o result.json
//	bash cmd/rtcbench/run.sh -compare base.json cand.json
//
// The first form prints one JSON line with the workload's end-to-end
// metrics (or, with --trace 1, its per-layer metrics). The second runs
// every workload, timed and traced, and writes the full report. The third
// compares reports of two builds. See README.md for the workloads, the
// metrics and how to run an A/B comparison.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code made explicit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "run one workload and print its result line (empty: every workload, full report)")
		seed      = fs.Int64("seed", 1, "workload seed")
		seconds   = fs.Float64("seconds", 20, "measuring time per run, in seconds")
		traced    = fs.Int("trace", 0, "with -workload: 0 reports end-to-end metrics, 1 per-layer metrics")
		out       = fs.String("o", "", "write the full report (timed and traced) to this file")
		chromeDir = fs.String("chrome", "", "write each traced workload's spans as Chrome trace JSON into this directory")
		root      = fs.String("root", ".", "repository root")
		cmp       = fs.Bool("compare", false, "compare two full reports: -compare base.json cand.json")
		update    = fs.Int("update-goldens", 0, "recompute the golden digests for seeds 0..n and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		logf(stderr, "%v", err)
		return 1
	}
	// Every workload runs on one processor: the garbage collector then
	// works on the measured path instead of an idle second core, and on a
	// shared host a single-processor run is far more repeatable.
	runtime.GOMAXPROCS(1)

	switch {
	case *cmp:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two report files"))
		}
		if err := compare(stdout, filepath.Join(*root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1)); err != nil {
			return fail(err)
		}
		return 0
	case *update > 0:
		if err := updateGoldens(*root, *update); err != nil {
			return fail(err)
		}
		return 0
	}

	gold, err := loadGoldens(*root)
	if err != nil {
		return fail(err)
	}
	if *name != "" && *out == "" {
		return runOne(*name, *seed, *seconds, *traced, gold, *chromeDir, stdout, stderr)
	}

	ws := workloads()
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			return fail(err)
		}
		ws = []workload{w}
	}
	rep := report{Seed: *seed, Seconds: *seconds, GoVersion: runtime.Version()}
	failed := 0
	for _, w := range ws {
		logf(stderr, "%s", w.name)
		r, err := fullReport(w, *seed, *seconds, gold, *chromeDir)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		for _, m := range r.Failures {
			logf(stderr, "%s: %s", w.name, m)
		}
		failed += r.Failed
		rep.Workloads = append(rep.Workloads, r)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fail(err)
	}
	data = append(data, '\n')
	if *out == "" || *out == "-" {
		_, err = stdout.Write(data)
	} else {
		err = os.WriteFile(*out, data, 0o644)
	}
	if err != nil {
		return fail(err)
	}
	if failed > 0 {
		return fail(fmt.Errorf("%d checks failed", failed))
	}
	return 0
}

// runOne measures one workload and prints the one-line result: the
// end-to-end metrics of a timed run, or with trace set the per-layer
// metrics of a traced run. Failed checks are reported in the line, not in
// the exit code.
func runOne(name string, seed int64, seconds float64, trace int, gold goldens, chromeDir string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		logf(stderr, "%v", err)
		return 1
	}
	w, err := findWorkload(name)
	if err != nil {
		return fail(err)
	}
	var res resultLine
	var values map[string]float64
	var defs []metricDef
	var c checks
	switch trace {
	case 0:
		t, err := runTimed(w, seed, seconds, gold)
		if err != nil {
			return fail(err)
		}
		values = map[string]float64{}
		for k, m := range t.endToEnd() {
			values[k] = m.value
		}
		b := values["batch_s"]
		logf(stderr, "%s: %d batches, batch_s %.4g (median batch %.4g)", name, len(t.batches), b, median(t.endToEnd()["batch_s"].samples))
		defs, c = endToEndDefs(), t.checks
	case 1:
		t, err := runTracedWorkload(w, seed, seconds, gold, chromeDir != "")
		if err != nil {
			return fail(err)
		}
		if err := writeChrome(chromeDir, w.name, t.tracer); err != nil {
			return fail(err)
		}
		values, defs, c = t.perLayer, perLayerDefs(), t.checks
	default:
		return fail(fmt.Errorf("-trace must be 0 or 1, got %d", trace))
	}
	if res.Metrics, err = pick(defs, values); err != nil {
		return fail(err)
	}
	for _, m := range c.messages {
		logf(stderr, "%s: %s", name, m)
	}
	res.Attempted, res.Failed, res.Correct = c.attempted, c.failed, c.failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	if _, err := fmt.Fprintf(stdout, "%s\n", line); err != nil {
		return fail(err)
	}
	return 0
}

// logf prints one diagnostic line.
func logf(stderr io.Writer, format string, args ...any) {
	//lint:ignore errdrop stderr is the last resort; its own failure has nowhere to go
	fmt.Fprintf(stderr, "rtcbench: "+format+"\n", args...)
}
