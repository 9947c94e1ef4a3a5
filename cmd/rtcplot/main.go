// Command rtcplot runs RTC sessions and renders ASCII charts in the
// terminal: per-frame latency timelines (optionally comparing two
// controllers), the control-plane rate timeline, and post-drop latency
// CDFs.
//
//	rtcplot -chart latency -compare
//	rtcplot -chart rates -controller adaptive
//	rtcplot -chart cdf -scenario flash-crowd
//
// -scenario is the network path, spelled as in rtcsim: a preset (default
// "standard", the paper's Figure 1 drop), a YAML/JSON scenario file, or
// a "seconds,bps" CSV trace.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"rtcadapt/internal/cli"
	"rtcadapt/internal/metrics"
	"rtcadapt/internal/plot"
	"rtcadapt/internal/scenario"
	"rtcadapt/internal/session"
	"rtcadapt/internal/trace"
	"rtcadapt/internal/video"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
// Every flag problem is diagnosed on stderr before any session runs.
func run(args []string, stdoutW, stderrW io.Writer) int {
	stdout := &cli.Printer{W: stdoutW}
	stderr := &cli.Printer{W: stderrW}
	code := runCmd(args, stdout, stderr, stderrW)
	if code == 0 && stdout.Err != nil {
		//lint:ignore errdrop stderr is the last resort; its own failure has nowhere to go
		fmt.Fprintf(stderrW, "rtcplot: writing output: %v\n", stdout.Err)
		return 1
	}
	return code
}

func runCmd(args []string, stdout, stderr *cli.Printer, stderrW io.Writer) int {
	fs := flag.NewFlagSet("rtcplot", flag.ContinueOnError)
	fs.SetOutput(stderrW)
	var (
		chart      = fs.String("chart", "latency", "chart: latency | rates | cdf")
		controller = fs.String("controller", "adaptive", "controller for single-series charts")
		compare    = fs.Bool("compare", false, "overlay native-rc and adaptive (latency/cdf)")
		scen       = fs.String("scenario", "standard", "network path: scenario preset, YAML/JSON scenario file, or seconds,bps CSV trace")
		duration   = fs.Duration("duration", 25*time.Second, "session length")
		seed       = fs.Int64("seed", 1, "random seed")
		width      = fs.Int("width", 72, "chart width")
		height     = fs.Int("height", 14, "chart height")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		stderr.Printf("rtcplot: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	switch *chart {
	case "latency", "rates", "cdf":
	default:
		stderr.Printf("rtcplot: unknown chart %q (want latency | rates | cdf)\n", *chart)
		return 2
	}
	sc, err := cli.ResolveScenario(*scen)
	if err != nil {
		stderr.Printf("rtcplot: %v\n", err)
		return 2
	}
	path, err := sc.Compile(scenario.CompileConfig{Seed: *seed, Duration: *duration})
	if err != nil {
		stderr.Printf("rtcplot: %v\n", err)
		return 2
	}
	names := []string{*controller}
	if *compare && *chart != "rates" {
		names = []string{"native-rc", "adaptive"}
	}
	// Controllers are stateful and single-use: each run gets its own
	// config and controller.
	cfgs := make([]session.Config, len(names))
	for i, n := range names {
		ctrl, err := cli.BuildController(n, false)
		if err != nil {
			stderr.Printf("rtcplot: %v\n", err)
			return 2
		}
		cfgs[i] = session.Config{
			Duration:    *duration,
			Seed:        *seed,
			Content:     video.TalkingHead,
			InitialRate: 1e6,
			Controller:  ctrl,
		}
		cfgs[i].ApplyPath(path)
		if err := cfgs[i].Validate(); err != nil {
			stderr.Printf("rtcplot: %v\n", err)
			return 2
		}
	}
	runs := make([]session.Result, len(cfgs))
	for i, cfg := range cfgs {
		runs[i] = session.Run(cfg)
	}

	pc := plot.Config{Width: *width, Height: *height}
	switch *chart {
	case "latency":
		pc.XLabel, pc.YLabel = "capture time (s)", "frame latency (ms)"
		var series []plot.Series
		for i, n := range names {
			x, y := metrics.DelaySeries(runs[i].Records)
			series = append(series, plot.Series{Name: n, X: x, Y: y})
		}
		stdout.Printf("frame latency, scenario %s\n\n", sc.Name)
		stdout.Printf("%s", plot.Line(pc, series...))
	case "rates":
		pc.XLabel, pc.YLabel = "time (s)", "rate (Mbps)"
		var capS, estS, encS plot.Series
		capS.Name, estS.Name, encS.Name = "capacity", "estimate", "encoder"
		for _, p := range runs[0].Timeline {
			t := p.At.Seconds()
			capS.X = append(capS.X, t)
			capS.Y = append(capS.Y, p.Capacity.Mbps())
			estS.X = append(estS.X, t)
			estS.Y = append(estS.Y, p.Estimate.Mbps())
			encS.X = append(encS.X, t)
			encS.Y = append(encS.Y, p.EncoderTarget.Mbps())
		}
		stdout.Printf("control plane, %s controller, scenario %s\n\n", *controller, sc.Name)
		stdout.Printf("%s", plot.Line(pc, capS, estS, encS))
	case "cdf":
		pc.XLabel, pc.YLabel = "frame latency (ms)", "CDF"
		// The window opens at the path's first capacity change (the drop
		// of a step scenario), or at 0 on a constant path.
		_, from := path.Trace.RateAt(0)
		if from == trace.Forever {
			from = 0
		}
		to := from + 5*time.Second
		var series []plot.Series
		for i, n := range names {
			ds, ps := metrics.CDF(runs[i].Records, from, to)
			series = append(series, plot.Series{Name: n, X: ds, Y: ps})
		}
		stdout.Printf("post-drop latency CDF, scenario %s (%v .. %v)\n\n", sc.Name, from, to)
		stdout.Printf("%s", plot.CDF(pc, series...))
	}
	return 0
}
