// Command benchdrop regenerates the paper's tables and figures.
//
//	benchdrop -exp all
//	benchdrop -exp table1 -seeds 10
//	benchdrop -exp figure1
//	benchdrop -exp all -parallel 8 -progress
//	benchdrop -exp frontier -grid small
//	benchdrop -exp scenarios -scenario standard,lte,oscillating -duration 10s
//	benchdrop -list-scenarios
//
// Experiment ids follow DESIGN.md: table1, table2, table3, figure1,
// figure2, figure3, figure4. Two corpus sweeps ride alongside the paper
// set (and stay out of "all", whose bytes are pinned): "frontier" maps
// the adaptive-vs-baseline win margin over the generated drop grid, and
// "scenarios" runs the declarative scenario corpus under both
// controllers. -scenario takes preset names or YAML/JSON scenario files,
// comma-separated. -format csv prints the same run's data points as CSV
// rows instead of the rendered tables (experiments.go holds both forms).
//
// Every experiment cell — one (scenario, controller, seed) session — is a
// pure function of its config, so cells run concurrently on -parallel
// workers (default GOMAXPROCS) and merge in canonical cell order: the
// output is byte-identical to -parallel 1.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"rtcadapt/internal/cli"
	"rtcadapt/internal/experiments"
	"rtcadapt/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
// Every flag problem is diagnosed on stderr (exit 2) before an experiment
// runs; an experiment that fails exits 1.
func run(args []string, stdoutW, stderrW io.Writer) int {
	stdout := &cli.Printer{W: stdoutW}
	stderr := &cli.Printer{W: stderrW}
	code := runCmd(args, stdout, stderr, stderrW)
	if code == 0 && stdout.Err != nil {
		//lint:ignore errdrop stderr is the last resort; its own failure has nowhere to go
		fmt.Fprintf(stderrW, "benchdrop: writing output: %v\n", stdout.Err)
		return 1
	}
	return code
}

// paperOrder is the experiment order of "all". "all" reproduces the paper
// set only; the corpus sweeps (frontier, scenarios) are opt-in so
// docs/results_snapshot.txt stays pinned.
var paperOrder = [...]string{"figure1", "table1", "table2", "figure2", "figure3", "table3", "figure4", "figure5", "figure6", "figure7", "figure8", "figure9", "figure10"}

// frontierGrids are the -grid choices. "small" is a 2×2 corner of the full
// grid at one (loss, RTT): quick enough for smoke checks while exercising
// the whole pipeline.
var frontierGrids = map[string]scenario.Grid{
	"default": {},
	"small": {
		DropAt:     3 * time.Second,
		Tail:       2 * time.Second,
		Magnitudes: []float64{0.5, 0.8},
		Durations:  []time.Duration{time.Second, 3 * time.Second},
		RTTs:       []time.Duration{50 * time.Millisecond},
		Losses:     []float64{0},
	},
}

func runCmd(args []string, stdout, stderr *cli.Printer, stderrW io.Writer) int {
	fs := flag.NewFlagSet("benchdrop", flag.ContinueOnError)
	fs.SetOutput(stderrW)
	var (
		exp           = fs.String("exp", "all", "experiment id: table1 | table2 | table3 | figure1..figure10 | frontier | scenarios | all")
		seeds         = fs.Int("seeds", 5, "number of seeds to average over")
		seed          = fs.Int64("seed", 1, "seed for single-run figures")
		format        = fs.String("format", "text", "output format: text | csv")
		parallel      = fs.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool size; 1 runs fully sequentially")
		progress      = fs.Bool("progress", false, "log per-cell progress to stderr")
		scenarios     = fs.String("scenario", "", "comma-separated scenario presets, YAML/JSON scenario files or seconds,bps CSV traces for -exp scenarios (default: every preset)")
		duration      = fs.Duration("duration", 30*time.Second, "per-session length for -exp scenarios")
		gridKind      = fs.String("grid", "default", "frontier sweep grid: default | small")
		listScenarios = fs.Bool("list-scenarios", false, "list the built-in scenario presets and fleet populations, then exit")
		cpuprof       = fs.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
		memprof       = fs.String("memprofile", "", "write a post-run heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		stderr.Printf("benchdrop: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *listScenarios {
		for _, name := range scenario.PresetNames() {
			stdout.Printf("%s\n", name)
		}
		for _, name := range scenario.PopulationNames() {
			stdout.Printf("%s (fleet population)\n", name)
		}
		return 0
	}

	r := &experiments.Runner{Workers: *parallel}
	if *progress {
		r.Progress = func(done, total int, label string) {
			stderr.Printf("[%d/%d] %s\n", done, total, label)
		}
	}
	grid, gridOK := frontierGrids[*gridKind]
	p := &params{seed: *seed, grid: grid, scenarios: *scenarios, duration: *duration} // seeds filled once -seeds is validated
	table := experimentTable(r, p)

	switch _, known := table[*exp]; {
	case !known && *exp != "all":
		stderr.Printf("benchdrop: unknown experiment %q\n", *exp)
		return 2
	case *seeds < 1:
		stderr.Printf("benchdrop: -seeds must be at least 1, got %d\n", *seeds)
		return 2
	case *format != "text" && *format != "csv":
		stderr.Printf("benchdrop: unknown -format %q (want text | csv)\n", *format)
		return 2
	case *duration <= 0:
		stderr.Printf("benchdrop: -duration must be positive, got %v\n", *duration)
		return 2
	case !gridOK:
		stderr.Printf("benchdrop: unknown -grid %q (want default | small)\n", *gridKind)
		return 2
	}
	p.seeds = make([]int64, *seeds)
	for i := range p.seeds {
		p.seeds[i] = int64(i + 1)
	}

	if *cpuprof != "" {
		stop, err := cli.StartCPUProfile(*cpuprof)
		if err != nil {
			stderr.Printf("benchdrop: %v\n", err)
			return 1
		}
		// Deferred so an experiment failure still closes the profile,
		// truncated at the failure point.
		defer func() {
			if err := stop(); err != nil {
				stderr.Printf("benchdrop: %v\n", err)
			}
		}()
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = paperOrder[:]
	}
	for _, id := range ids {
		res, err := table[id]()
		if err != nil {
			stderr.Printf("benchdrop: %v\n", err)
			return 1
		}
		if *format == "text" {
			stdout.Printf("%s\n", res.text)
			continue
		}
		if *exp == "all" {
			stdout.Printf("# %s\n", id)
		}
		var b strings.Builder
		if err := csv.NewWriter(&b).WriteAll(res.rows); err != nil {
			stderr.Printf("benchdrop: %v\n", err)
			return 1
		}
		stdout.Printf("%s", b.String())
	}
	if *memprof != "" {
		if err := cli.WriteHeapProfile(*memprof); err != nil {
			stderr.Printf("benchdrop: %v\n", err)
			return 1
		}
	}
	return 0
}

// resolveScenarios resolves the -scenario flag; empty means every preset.
func resolveScenarios(arg string) ([]scenario.Scenario, error) {
	if arg == "" {
		var scs []scenario.Scenario
		for _, name := range scenario.PresetNames() {
			scs = append(scs, scenario.MustPreset(name))
		}
		return scs, nil
	}
	return cli.ResolveScenarios(arg)
}
