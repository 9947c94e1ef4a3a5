// Command rtcfleet runs a deterministic fleet of sessions — a population
// of 100k+ independent RTC flows sharded across schedulers — and prints
// fleet-level latency and SSIM distributions.
//
// The -scenario flag names a built-in population (drop | lte | wifi |
// mixed), a scenario preset, or a YAML/JSON scenario file; presets and
// files run as homogeneous populations. Output is byte-identical for any
// -shards / -workers value; only the wall-clock line (written to stderr)
// depends on the machine. With -out sessions the per-session CSV is
// streamed shard by shard, so memory stays bounded at any population
// size.
//
// Examples:
//
//	rtcfleet -sessions 1000 -shards 8 -scenario mixed
//	rtcfleet -sessions 100000 -shards 16 -scenario drop -duration 10s -out csv
//	rtcfleet -sessions 100 -scenario oscillating -out sessions > sessions.csv
//	rtcfleet -sessions 100 -scenario path.yaml -duration 30s
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"rtcadapt/internal/cli"
	"rtcadapt/internal/fleet"
	"rtcadapt/internal/scenario"
	"rtcadapt/internal/session"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdoutW, stderrW io.Writer) int {
	stderr := &cli.Printer{W: stderrW}
	code := runCmd(args, stdoutW, stderr, stderrW)
	return code
}

// buildScenario resolves the -scenario flag: a built-in population name
// first, else a preset or scenario file wrapped as a one-member
// population.
func buildScenario(arg string, dur time.Duration) (func(index int, seed int64) session.Config, error) {
	for _, name := range fleet.ScenarioNames() {
		if arg == name {
			return fleet.ScenarioBuild(arg, dur)
		}
	}
	sc, err := cli.ResolveScenario(arg)
	if err != nil {
		return nil, fmt.Errorf("unknown scenario %q (populations: %s): %v",
			arg, strings.Join(fleet.ScenarioNames(), " | "), err)
	}
	return fleet.PopulationBuild(scenario.Population{Name: sc.Name, Members: []scenario.Scenario{sc}}, dur)
}

func runCmd(args []string, stdoutW io.Writer, stderr *cli.Printer, stderrW io.Writer) int {
	fs := flag.NewFlagSet("rtcfleet", flag.ContinueOnError)
	fs.SetOutput(stderrW)
	var (
		sessions = fs.Int("sessions", 1000, "population size")
		shards   = fs.Int("shards", 1, "scheduler shards (output is identical for any value)")
		workers  = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS; output is identical for any value)")
		scen     = fs.String("scenario", "drop", "population ("+strings.Join(fleet.ScenarioNames(), " | ")+"), scenario preset, YAML/JSON scenario file, or seconds,bps CSV trace")
		seed     = fs.Int64("seed", 1, "fleet seed; session i runs with seed+i")
		duration = fs.Duration("duration", 10*time.Second, "per-session length")
		record   = fs.Bool("record", false, "attach per-shard flight recorders (reports event totals)")
		out      = fs.String("out", "summary", "output: summary | csv | sessions (sessions streams shard by shard)")
		progress = fs.Bool("progress", false, "report per-shard progress on stderr")
		cpuprof  = fs.String("cpuprofile", "", "write a CPU profile of the fleet run to this file")
		memprof  = fs.String("memprofile", "", "write a post-run heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		stderr.Printf("rtcfleet: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	switch *out {
	case "summary", "csv", "sessions":
	default:
		stderr.Printf("rtcfleet: unknown -out %q (want summary | csv | sessions)\n", *out)
		return 2
	}
	build, err := buildScenario(*scen, *duration)
	if err != nil {
		stderr.Printf("rtcfleet: %v\n", err)
		return 2
	}

	cfg := fleet.Config{
		Sessions: *sessions,
		Shards:   *shards,
		Workers:  *workers,
		Seed:     *seed,
		Build:    build,
		Record:   *record,
	}
	if *progress {
		cfg.Progress = func(done, total int, label string) {
			stderr.Printf("rtcfleet: %d/%d %s\n", done, total, label)
		}
	}

	if *cpuprof != "" {
		stopProf, err := cli.StartCPUProfile(*cpuprof)
		if err != nil {
			stderr.Printf("rtcfleet: %v\n", err)
			return 2
		}
		defer func() {
			if err := stopProf(); err != nil {
				stderr.Printf("rtcfleet: %v\n", err)
			}
		}()
	}

	start := time.Now()
	var shardsRan int
	if *out == "sessions" {
		// Streamed: rows leave as shards finish, summaries are released,
		// and memory stays bounded regardless of -sessions.
		st, err := fleet.RunSessionsCSV(cfg, stdoutW)
		if err != nil {
			stderr.Printf("rtcfleet: %v\n", err)
			return 2
		}
		shardsRan = st.Shards
	} else {
		res, err := fleet.Run(cfg)
		if err != nil {
			stderr.Printf("rtcfleet: %v\n", err)
			return 2
		}
		shardsRan = res.Shards
		switch *out {
		case "summary":
			err = fleet.WriteSummary(stdoutW, res)
		case "csv":
			err = fleet.WriteDistCSV(stdoutW, res)
		}
		if err != nil {
			//lint:ignore errdrop stderr is the last resort; its own failure has nowhere to go
			fmt.Fprintf(stderrW, "rtcfleet: writing output: %v\n", err)
			return 1
		}
	}
	elapsed := time.Since(start)
	if *memprof != "" {
		if err := cli.WriteHeapProfile(*memprof); err != nil {
			stderr.Printf("rtcfleet: %v\n", err)
			return 2
		}
	}
	// Wall clock goes to stderr so stdout stays byte-deterministic.
	stderr.Printf("rtcfleet: %d sessions x %v in %.2fs (%.0f sessions/s, %d shards, %d workers)\n",
		*sessions, *duration, elapsed.Seconds(),
		float64(*sessions)/elapsed.Seconds(), shardsRan, *workers)
	return 0
}
