// Command rtcsim runs one end-to-end RTC session and prints its metrics.
//
// Examples:
//
//	rtcsim -controller adaptive                 # the standard 2.5 -> 0.8 Mbps drop
//	rtcsim -scenario lte -controller native-rc -duration 60s -out frames
//	rtcsim -scenario lte.csv -controller adaptive -out timeline
//	rtcsim -scenario flash-crowd -controller adaptive
//	rtcsim -scenario path.yaml -controller native-rc
//
// -scenario is the whole network path: a preset from the declarative
// corpus (default "standard", the paper's Figure 1 drop), a YAML/JSON
// scenario file, or a measured "seconds,bps" CSV trace. It pins the
// capacity trace, loss, burst loss, RTT and queue. The scenario's natural
// duration is used unless -duration is given explicitly.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"rtcadapt/internal/cc"
	"rtcadapt/internal/cli"
	"rtcadapt/internal/metrics"
	"rtcadapt/internal/scenario"
	"rtcadapt/internal/session"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
// Every flag problem is diagnosed on stderr before the session runs.
func run(args []string, stdoutW, stderrW io.Writer) int {
	stdout := &cli.Printer{W: stdoutW}
	stderr := &cli.Printer{W: stderrW}
	code := runCmd(args, stdout, stderr, stderrW)
	if code == 0 && stdout.Err != nil {
		//lint:ignore errdrop stderr is the last resort; its own failure has nowhere to go
		fmt.Fprintf(stderrW, "rtcsim: writing output: %v\n", stdout.Err)
		return 1
	}
	return code
}

func runCmd(args []string, stdout, stderr *cli.Printer, stderrW io.Writer) int {
	fs := flag.NewFlagSet("rtcsim", flag.ContinueOnError)
	fs.SetOutput(stderrW)
	var (
		scen       = fs.String("scenario", "standard", "network path: scenario preset, YAML/JSON scenario file, or seconds,bps CSV trace")
		controller = fs.String("controller", "adaptive", "controller: native-rc | reset-only | adaptive")
		estimator  = fs.String("estimator", "gcc", "estimator: gcc | oracle")
		content    = fs.String("content", "talking-head", "content: talking-head | screen-share | gaming | sports")
		duration   = fs.Duration("duration", 30*time.Second, "session length (unset: the scenario's natural span, if it has one)")
		seed       = fs.Int64("seed", 1, "random seed")
		fbLoss     = fs.Float64("feedbackloss", 0, "reverse-path (feedback) loss probability")
		nack       = fs.Bool("nack", false, "enable NACK retransmission")
		fecK       = fs.Int("fec", 0, "FEC group size (0 = off; e.g. 4 = 25% overhead)")
		resolution = fs.Bool("resolution", false, "enable the adaptive resolution ladder")
		audioOn    = fs.Bool("audio", false, "add an Opus-like 32 kbps audio stream")
		tlayers    = fs.Int("tl", 1, "temporal layers (2 = SVC base + droppable enhancement)")
		probing    = fs.Bool("probe", false, "enable padding probe clusters for fast capacity rediscovery")
		out        = fs.String("out", "summary", "output: summary | frames | timeline")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		stderr.Printf("rtcsim: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	switch *out {
	case "summary", "frames", "timeline":
	default:
		stderr.Printf("rtcsim: unknown -out %q (want summary | frames | timeline)\n", *out)
		return 2
	}
	switch *estimator {
	case "gcc", "oracle":
	default:
		stderr.Printf("rtcsim: unknown -estimator %q (want gcc | oracle)\n", *estimator)
		return 2
	}

	// An explicit -duration beats the scenario's natural span; detect it
	// so a plain "-scenario staircase" runs the whole staircase.
	durationSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "duration" {
			durationSet = true
		}
	})

	sc, err := cli.ResolveScenario(*scen)
	if err != nil {
		stderr.Printf("rtcsim: %v\n", err)
		return 2
	}
	path, err := sc.Compile(scenario.CompileConfig{Seed: *seed, Duration: *duration})
	if err != nil {
		stderr.Printf("rtcsim: %v\n", err)
		return 2
	}
	ctrl, err := cli.BuildController(*controller, *resolution)
	if err != nil {
		stderr.Printf("rtcsim: %v\n", err)
		return 2
	}
	cls, err := cli.ParseContent(*content)
	if err != nil {
		stderr.Printf("rtcsim: %v\n", err)
		return 2
	}

	cfg := session.Config{
		Seed:             *seed,
		Content:          cls,
		FeedbackLossProb: *fbLoss,
		NACK:             *nack,
		FECGroupSize:     *fecK,
		Audio:            *audioOn,
		Probing:          *probing,
		Controller:       ctrl,
	}
	cfg.Encoder.TemporalLayers = *tlayers
	if durationSet {
		cfg.Duration = *duration
	}
	cfg.ApplyPath(path)
	if *estimator == "oracle" {
		cfg.NewEstimator = func(capacity cc.CapacityFunc) cc.Estimator {
			return cc.NewOracle(capacity, 0.95)
		}
	}
	// Surface bad numeric combinations (negative durations, out-of-range
	// probabilities, ...) as diagnostics, not as a panic out of New.
	if err := cfg.Validate(); err != nil {
		stderr.Printf("rtcsim: %v\n", err)
		return 2
	}
	res := session.Run(cfg)

	switch *out {
	case "summary":
		printSummary(stdout, res)
	case "frames":
		printFrames(stdout, res)
	case "timeline":
		printTimeline(stdout, res)
	}
	return 0
}

func printSummary(w *cli.Printer, res session.Result) {
	r := res.Report
	w.Printf("controller: %s   estimator: %s\n", res.ControllerName, res.EstimatorName)
	w.Printf("frames: %d (delivered %d, skipped %d, dropped %d)\n",
		r.Frames, r.DeliveredFrames, r.SkippedFrames, r.DroppedFrames)
	w.Printf("latency  mean %s ms  P50 %s ms  P95 %s ms  P99 %s ms  max %s ms\n",
		metrics.Ms(r.MeanNetDelay), metrics.Ms(r.P50NetDelay),
		metrics.Ms(r.P95NetDelay), metrics.Ms(r.P99NetDelay), metrics.Ms(r.MaxNetDelay))
	w.Printf("display  mean %s ms  P95 %s ms\n",
		metrics.Ms(r.MeanDisplayDelay), metrics.Ms(r.P95DisplayDelay))
	w.Printf("quality  displayed SSIM %.4f  encoded SSIM %.4f\n", r.MeanSSIM, r.EncodedSSIM)
	w.Printf("bitrate  %.2f Mbps   freezes %d (longest %s ms)   MOS %.2f\n",
		r.Bitrate/1e6, r.FreezeCount, metrics.Ms(r.LongestFreeze), metrics.MOS(r))
	w.Printf("link     delivered %d, queue-dropped %d, loss-dropped %d   PLI %d\n",
		res.LinkStats.Delivered, res.LinkStats.DroppedQueue, res.LinkStats.DroppedLoss, res.PLISent)
	if res.NacksSent > 0 || res.FECRepairs > 0 {
		w.Printf("repair   nacks %d, retransmitted %d, fec repairs %d, fec recovered %d\n",
			res.NacksSent, res.Retransmitted, res.FECRepairs, res.FECRecovered)
	}
	if res.Audio != nil {
		a := res.Audio
		w.Printf("audio    MOS %.2f   loss %.1f%%   mean delay %s ms (sent %d, concealed %d)\n",
			a.MOS, a.LossFrac*100, metrics.Ms(a.MeanDelay), a.Sent, a.Concealed)
	}
}

func printFrames(w *cli.Printer, res session.Result) {
	w.Printf("index,capture_s,outcome,latency_ms,display_ms,bytes,qp,keyframe,ssim,tl\n")
	for _, r := range res.Records {
		lat, disp := 0.0, 0.0
		if r.Arrival > 0 {
			lat = r.NetworkDelay().Seconds() * 1000
		}
		if r.DisplayAt > 0 {
			disp = r.DisplayDelay().Seconds() * 1000
		}
		w.Printf("%d,%.3f,%s,%.1f,%.1f,%d,%d,%t,%.4f,%d\n",
			r.Index, r.CaptureTS.Seconds(), r.Outcome, lat, disp, r.Bytes, r.QP, r.Keyframe, r.SSIM, r.TemporalLayer)
	}
}

func printTimeline(w *cli.Printer, res session.Result) {
	w.Printf("t_s,capacity_bps,estimate_bps,encoder_bps,linkq_ms,pacerq_ms\n")
	for _, p := range res.Timeline {
		w.Printf("%.1f,%.0f,%.0f,%.0f,%.1f,%.1f\n",
			p.At.Seconds(), p.Capacity, p.Estimate, p.EncoderTarget,
			p.LinkQueue.Seconds()*1000, p.PacerQueue.Seconds()*1000)
	}
}
