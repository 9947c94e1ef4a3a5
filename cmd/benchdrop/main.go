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
// comma-separated.
//
// Every experiment cell — one (scenario, controller, seed) session — is a
// pure function of its config, so cells run concurrently on -parallel
// workers (default GOMAXPROCS) and merge in canonical cell order: the
// output is byte-identical to -parallel 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"rtcadapt/internal/cli"
	"rtcadapt/internal/experiments"
	"rtcadapt/internal/scenario"
)

func main() {
	var (
		exp           = flag.String("exp", "all", "experiment id: table1 | table2 | table3 | figure1..figure10 | frontier | scenarios | all")
		seeds         = flag.Int("seeds", 5, "number of seeds to average over")
		seed          = flag.Int64("seed", 1, "seed for single-run figures")
		format        = flag.String("format", "text", "output format: text | csv")
		parallel      = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool size; 1 runs fully sequentially")
		progress      = flag.Bool("progress", false, "log per-cell progress to stderr")
		scenarios     = flag.String("scenario", "", "comma-separated scenario presets or YAML/JSON files for -exp scenarios (default: every preset)")
		duration      = flag.Duration("duration", 30*time.Second, "per-session length for -exp scenarios")
		gridKind      = flag.String("grid", "default", "frontier sweep grid: default | small")
		listScenarios = flag.Bool("list-scenarios", false, "list the built-in scenario presets and fleet populations, then exit")
		cpuprof       = flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
		memprof       = flag.String("memprofile", "", "write a post-run heap profile to this file")
	)
	flag.Parse()

	if *listScenarios {
		for _, name := range scenario.PresetNames() {
			fmt.Println(name)
		}
		for _, name := range scenario.PopulationNames() {
			fmt.Printf("%s (fleet population)\n", name)
		}
		return
	}

	seedList := make([]int64, *seeds)
	for i := range seedList {
		seedList[i] = int64(i + 1)
	}

	r := &experiments.Runner{Workers: *parallel}
	if *progress {
		r.Progress = func(done, total int, label string) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s\n", done, total, label)
		}
	}

	// stopCPU ends CPU profiling; finish is the single normal-exit path so
	// profiles are complete whichever experiment branch ran. fatal stops the
	// profile too (truncating it at the failure point) before exiting.
	var stopCPU func() error
	finish := func() {
		if stopCPU != nil {
			if err := stopCPU(); err != nil {
				fmt.Fprintln(os.Stderr, "benchdrop:", err)
			}
			stopCPU = nil
		}
		if *memprof != "" {
			if err := cli.WriteHeapProfile(*memprof); err != nil {
				fmt.Fprintln(os.Stderr, "benchdrop:", err)
			}
		}
	}
	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "benchdrop:", err)
		if stopCPU != nil {
			//lint:ignore errdrop the experiment error is the one worth reporting on this path
			stopCPU()
		}
		os.Exit(1)
	}

	if *cpuprof != "" {
		stop, err := cli.StartCPUProfile(*cpuprof)
		if err != nil {
			fatal(err)
		}
		stopCPU = stop
	}
	frontierGrid := func() scenario.Grid {
		switch *gridKind {
		case "default":
			return scenario.Grid{}
		case "small":
			// A 2×2 corner of the full grid at one (loss, RTT): quick
			// enough for smoke checks while exercising the whole pipeline.
			return scenario.Grid{
				DropAt:     3 * time.Second,
				Tail:       2 * time.Second,
				Magnitudes: []float64{0.5, 0.8},
				Durations:  []time.Duration{time.Second, 3 * time.Second},
				RTTs:       []time.Duration{50 * time.Millisecond},
				Losses:     []float64{0},
			}
		}
		fatal(fmt.Errorf("unknown -grid %q (want default | small)", *gridKind))
		panic("unreachable")
	}
	resolveScenarios := func() []scenario.Scenario {
		if *scenarios == "" {
			var scs []scenario.Scenario
			for _, name := range scenario.PresetNames() {
				scs = append(scs, scenario.MustPreset(name))
			}
			return scs
		}
		scs, err := cli.ResolveScenarios(*scenarios)
		if err != nil {
			fatal(err)
		}
		return scs
	}

	runners := map[string]func(){
		"table1":  func() { fmt.Println(experiments.RenderTable1(r.Table1(seedList))) },
		"table2":  func() { fmt.Println(experiments.RenderTable2(r.Table2(seedList))) },
		"table3":  func() { fmt.Println(experiments.RenderTable3(r.Table3(seedList))) },
		"figure1": func() { fmt.Println(experiments.RenderFigure1(r.Figure1(*seed))) },
		"figure2": func() { fmt.Println(experiments.RenderFigure2(r.Figure2(seedList))) },
		"figure3": func() { fmt.Println(experiments.RenderFigure3(r.Figure3(seedList))) },
		"figure4": func() { fmt.Println(experiments.RenderFigure4(r.Figure4(seedList))) },
		"figure5": func() { fmt.Println(experiments.RenderFigure5(r.Figure5(seedList))) },
		"figure6": func() { fmt.Println(experiments.RenderFigure6(r.Figure6(seedList))) },
		"figure7": func() { fmt.Println(experiments.RenderFigure7(r.Figure7(seedList))) },
		"figure8": func() { fmt.Println(experiments.RenderFigure8(r.Figure8(seedList))) },
		"figure9": func() { fmt.Println(experiments.RenderFigure9(r.Figure9(seedList))) },
		"figure10": func() {
			fmt.Println(experiments.RenderFigure10(r.Figure10(seedList)))
		},
		"frontier": func() {
			res, err := r.Frontier(frontierGrid(), seedList)
			if err != nil {
				fatal(err)
			}
			fmt.Println(experiments.RenderFrontier(res))
		},
		"scenarios": func() {
			rows, err := r.ScenarioTable(resolveScenarios(),
				[]experiments.ControllerKind{experiments.KindNative, experiments.KindAdaptive},
				seedList, *duration)
			if err != nil {
				fatal(err)
			}
			fmt.Println(experiments.RenderScenarioTable(rows))
		},
	}
	// "all" reproduces the paper set only; the corpus sweeps (frontier,
	// scenarios) are opt-in so docs/results_snapshot.txt stays pinned.
	order := []string{"figure1", "table1", "table2", "figure2", "figure3", "table3", "figure4", "figure5", "figure6", "figure7", "figure8", "figure9", "figure10"}

	if *format == "csv" {
		ids := order
		if *exp != "all" {
			ids = []string{*exp}
		}
		for _, id := range ids {
			out, err := r.CSV(id, seedList)
			if err != nil {
				fatal(err)
			}
			if *exp == "all" {
				fmt.Printf("# %s\n", id)
			}
			fmt.Print(out)
		}
		finish()
		return
	}

	if *exp == "all" {
		for _, id := range order {
			runners[id]()
		}
		finish()
		return
	}
	run, ok := runners[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchdrop: unknown experiment %q\n", *exp)
		os.Exit(1)
	}
	run()
	finish()
}
