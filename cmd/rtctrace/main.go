// Command rtctrace drives the flight recorder: it runs one session with
// recording enabled and exports the trace, inspects a trace file, or
// diffs two traces event by event.
//
// Examples:
//
//	rtctrace -exp figure1 -out trace.json   # Chrome trace JSON (load in Perfetto)
//	rtctrace -exp figure1 -out trace.csv    # canonical CSV
//	rtctrace -exp figure1                   # ASCII timeline on stdout
//	rtctrace -scenario flash-crowd          # record a declarative scenario
//	rtctrace -inspect trace.json            # counters + timeline of a saved trace
//	rtctrace -diff a.csv b.json             # exit 1 at the first divergent event
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"rtcadapt/internal/cli"
	"rtcadapt/internal/obs"
	"rtcadapt/internal/plot"
	"rtcadapt/internal/scenario"
	"rtcadapt/internal/session"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdoutW, stderrW io.Writer) int {
	stdout := &cli.Printer{W: stdoutW}
	stderr := &cli.Printer{W: stderrW}
	code := runCmd(args, stdout, stderr, stderrW)
	if code == 0 && stdout.Err != nil {
		//lint:ignore errdrop stderr is the last resort; its own failure has nowhere to go
		fmt.Fprintf(stderrW, "rtctrace: writing output: %v\n", stdout.Err)
		return 1
	}
	return code
}

func runCmd(args []string, stdout, stderr *cli.Printer, stderrW io.Writer) int {
	fs := flag.NewFlagSet("rtctrace", flag.ContinueOnError)
	fs.SetOutput(stderrW)
	var (
		exp        = fs.String("exp", "", "experiment preset: figure1 (the standard scenario, talking-head, adaptive)")
		scen       = fs.String("scenario", "standard", "network path: scenario preset, YAML/JSON scenario file, or seconds,bps CSV trace")
		controller = fs.String("controller", "adaptive", "controller: native-rc | reset-only | adaptive")
		content    = fs.String("content", "talking-head", "content: talking-head | screen-share | gaming | sports")
		duration   = fs.Duration("duration", 30*time.Second, "session length (unset: the scenario's natural span, if it has one)")
		seed       = fs.Int64("seed", 1, "random seed")
		capacity   = fs.Int("capacity", 0, "recorder ring capacity in events (0 = default)")
		out        = fs.String("out", "", "output file; empty renders the ASCII timeline to stdout")
		format     = fs.String("format", "", "export format: chrome | csv | ascii (default: by -out extension)")
		width      = fs.Int("width", 64, "ASCII timeline width in buckets")
		inspect    = fs.Bool("inspect", false, "inspect the trace file given as the positional argument")
		diff       = fs.Bool("diff", false, "diff the two trace files given as positional arguments")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *inspect && *diff:
		stderr.Printf("rtctrace: -inspect and -diff are mutually exclusive\n")
		return 2
	case *inspect:
		if fs.NArg() != 1 {
			stderr.Printf("rtctrace: -inspect needs exactly one trace file\n")
			return 2
		}
		return runInspect(fs.Arg(0), *width, stdout, stderr)
	case *diff:
		if fs.NArg() != 2 {
			stderr.Printf("rtctrace: -diff needs exactly two trace files\n")
			return 2
		}
		return runDiff(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case fs.NArg() != 0:
		stderr.Printf("rtctrace: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	durationSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "duration" {
			durationSet = true
		}
	})
	return runRecord(recordOpts{
		exp: *exp, scenario: *scen, controller: *controller, content: *content,
		duration: *duration, durationSet: durationSet, seed: *seed,
		capacity: *capacity, out: *out, format: *format, width: *width,
	}, stdout, stderr)
}

// recordOpts carries the record-mode flag values.
type recordOpts struct {
	exp, scenario            string
	duration                 time.Duration
	controller, content, out string
	format                   string
	seed                     int64
	capacity, width          int
	// durationSet records whether -duration was given explicitly; when
	// not, a -scenario's natural span wins.
	durationSet bool
}

// exportFormat resolves the output format from the -format override or
// the -out extension.
func exportFormat(out, format string) (string, error) {
	if format != "" {
		switch format {
		case "chrome", "csv", "ascii":
			return format, nil
		}
		return "", fmt.Errorf("unknown -format %q (want chrome | csv | ascii)", format)
	}
	switch filepath.Ext(out) {
	case ".json":
		return "chrome", nil
	case ".csv":
		return "csv", nil
	default:
		return "ascii", nil
	}
}

// runRecord runs one recorded session and exports the trace.
func runRecord(o recordOpts, stdout, stderr *cli.Printer) int {
	if o.exp != "" {
		switch o.exp {
		case "figure1":
			o.scenario, o.content, o.controller = "standard", "talking-head", "adaptive"
		default:
			stderr.Printf("rtctrace: unknown -exp %q (want figure1)\n", o.exp)
			return 2
		}
	}
	fmtName, err := exportFormat(o.out, o.format)
	if err != nil {
		stderr.Printf("rtctrace: %v\n", err)
		return 2
	}
	sc, err := cli.ResolveScenario(o.scenario)
	if err != nil {
		stderr.Printf("rtctrace: %v\n", err)
		return 2
	}
	path, err := sc.Compile(scenario.CompileConfig{Seed: o.seed, Duration: o.duration})
	if err != nil {
		stderr.Printf("rtctrace: %v\n", err)
		return 2
	}
	ctrl, err := cli.BuildController(o.controller, false)
	if err != nil {
		stderr.Printf("rtctrace: %v\n", err)
		return 2
	}
	cls, err := cli.ParseContent(o.content)
	if err != nil {
		stderr.Printf("rtctrace: %v\n", err)
		return 2
	}
	rec := obs.NewRecorder(o.capacity)
	cfg := session.Config{
		Seed:       o.seed,
		Content:    cls,
		Controller: ctrl,
		Recorder:   rec,
	}
	if o.durationSet {
		cfg.Duration = o.duration
	}
	cfg.ApplyPath(path)
	if err := cfg.Validate(); err != nil {
		stderr.Printf("rtctrace: %v\n", err)
		return 2
	}
	session.Run(cfg)
	snap := rec.Snapshot()

	if o.out == "" {
		stdout.Printf("%s", plot.ObsTimeline(snap, o.width))
		return 0
	}
	f, err := os.Create(o.out)
	if err != nil {
		stderr.Printf("rtctrace: %v\n", err)
		return 1
	}
	switch fmtName {
	case "chrome":
		err = obs.WriteChromeJSON(f, snap)
	case "csv":
		err = obs.WriteCSV(f, snap)
	case "ascii":
		_, err = io.WriteString(f, plot.ObsTimeline(snap, o.width))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		stderr.Printf("rtctrace: %v\n", err)
		return 1
	}
	stdout.Printf("recorded %d events (%d dropped), %d counters; wrote %s (%s)\n",
		len(snap.Events), snap.DroppedEvents, len(snap.Counters), o.out, fmtName)
	return 0
}

// readTraceFile loads one trace file through the format-sniffing reader.
func readTraceFile(path string) (*obs.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := obs.ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// runInspect prints a summary, the counters, and the ASCII timeline of a
// saved trace.
func runInspect(path string, width int, stdout, stderr *cli.Printer) int {
	t, err := readTraceFile(path)
	if err != nil {
		stderr.Printf("rtctrace: %v\n", err)
		return 1
	}
	var span time.Duration
	if n := len(t.Events); n > 0 {
		span = t.Events[n-1].At - t.Events[0].At
	}
	stdout.Printf("%s: %d events over %.3fs, %d dropped\n",
		path, len(t.Events), span.Seconds(), t.DroppedEvents)
	for _, c := range t.Counters {
		stdout.Printf("  %-36s %g\n", c.Name, c.Value)
	}
	stdout.Printf("%s", plot.ObsTimeline(t, width))
	return 0
}

// runDiff reports the first divergence between two traces; exit 0 means
// identical.
func runDiff(pathA, pathB string, stdout, stderr *cli.Printer) int {
	a, err := readTraceFile(pathA)
	if err != nil {
		stderr.Printf("rtctrace: %v\n", err)
		return 1
	}
	b, err := readTraceFile(pathB)
	if err != nil {
		stderr.Printf("rtctrace: %v\n", err)
		return 1
	}
	if d := obs.Diff(a, b); d != nil {
		stdout.Printf("traces diverge: %s\n", d)
		return 1
	}
	stdout.Printf("traces identical: %d events, %d counters\n", len(a.Events), len(a.Counters))
	return 0
}
