// Package experiments defines and runs the paper's evaluation suite. Each
// exported function regenerates one table or figure from DESIGN.md's
// experiment inventory, returning typed results plus a rendered text block
// matching what the poster reports.
//
// Experiments average over multiple seeds; every run is deterministic given
// its seed.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"rtcadapt/internal/cc"
	"rtcadapt/internal/core"
	"rtcadapt/internal/metrics"
	"rtcadapt/internal/plot"
	"rtcadapt/internal/session"
	"rtcadapt/internal/stats"
	"rtcadapt/internal/trace"
	"rtcadapt/internal/units"
	"rtcadapt/internal/video"
)

// DropScenario is one bandwidth-drop workload.
type DropScenario struct {
	// Name labels the scenario in tables, e.g. "2.5->1.0".
	Name string
	// Before and After are the capacities.
	Before, After units.BitsPerSec
	// DropAt is when the capacity steps down.
	DropAt time.Duration
	// Content is the video class.
	Content video.Class
}

// String returns "name/content".
func (s DropScenario) String() string {
	return fmt.Sprintf("%s/%s", s.Name, s.Content)
}

// DefaultSeeds returns the seeds experiments average over. Every call
// returns a fresh copy: callers may append, reorder, or truncate the
// result without skewing any other experiment. (It was once a shared
// package-level slice, which let one caller's sort/append leak into every
// concurrent runner.)
func DefaultSeeds() []int64 {
	return []int64{1, 2, 3, 4, 5}
}

// DropMatrix is the scenario grid behind Table 1 and Table 2: five drop
// magnitudes by two content classes.
func DropMatrix() []DropScenario {
	drops := []struct {
		name          string
		before, after units.BitsPerSec
	}{
		{"2.5->1.8", 2.5e6, 1.8e6},
		{"2.5->1.5", 2.5e6, 1.5e6},
		{"2.5->1.0", 2.5e6, 1.0e6},
		{"2.5->0.5", 2.5e6, 0.5e6},
		{"4.0->1.0", 4.0e6, 1.0e6},
		{"1.2->0.6", 1.2e6, 0.6e6},
	}
	var out []DropScenario
	for _, d := range drops {
		for _, content := range []video.Class{video.TalkingHead, video.Gaming} {
			out = append(out, DropScenario{
				Name:    d.name,
				Before:  d.before,
				After:   d.after,
				DropAt:  10 * time.Second,
				Content: content,
			})
		}
	}
	return out
}

// ControllerKind names a control-plane configuration.
type ControllerKind string

// Controller kinds used across experiments.
const (
	// KindNative is the slow-reconfiguration baseline.
	KindNative ControllerKind = "native-rc"
	// KindResetOnly retargets instantly but touches no codec knobs.
	KindResetOnly ControllerKind = "reset-only"
	// KindAdaptive is the paper's scheme with GCC.
	KindAdaptive ControllerKind = "adaptive"
	// KindAdaptiveOracle is the paper's scheme driven by the capacity
	// oracle (upper bound).
	KindAdaptiveOracle ControllerKind = "adaptive-oracle"
)

// Kinds lists the controller configurations compared in Figure 3/4.
func Kinds() []ControllerKind {
	return []ControllerKind{KindNative, KindResetOnly, KindAdaptive, KindAdaptiveOracle}
}

// buildConfig assembles a session config for a scenario, controller kind
// and seed. adaptiveCfg is used for the adaptive kinds (ablations override
// it).
func buildConfig(tr *trace.Trace, content video.Class, kind ControllerKind,
	seed int64, dur time.Duration, adaptiveCfg core.AdaptiveConfig) session.Config {
	cfg := session.Config{
		Duration:    dur,
		Seed:        seed,
		Content:     content,
		Trace:       tr,
		InitialRate: 1e6,
	}
	attachController(&cfg, kind, adaptiveCfg)
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("experiments: bad scenario config: %v", err))
	}
	return cfg
}

// attachController installs the controller (and estimator override) for
// a kind. Controllers are stateful and single-use, so this runs once per
// session config.
func attachController(cfg *session.Config, kind ControllerKind, adaptiveCfg core.AdaptiveConfig) {
	switch kind {
	case KindNative:
		cfg.Controller = core.NewNativeRC()
	case KindResetOnly:
		cfg.Controller = core.NewResetOnly()
	case KindAdaptive:
		cfg.Controller = core.NewAdaptive(adaptiveCfg)
	case KindAdaptiveOracle:
		cfg.Controller = core.NewAdaptive(adaptiveCfg)
		cfg.NewEstimator = func(capacity cc.CapacityFunc) cc.Estimator {
			return cc.NewOracle(capacity, 0.95)
		}
	default:
		panic(fmt.Sprintf("experiments: unknown controller kind %q", kind))
	}
}

// runDrop executes one drop scenario under one controller kind.
func (r *Runner) runDrop(sc DropScenario, kind ControllerKind, seed int64) session.Result {
	tr := trace.StepDrop(sc.Before, sc.After, sc.DropAt)
	return session.Run(buildConfig(tr, sc.Content, kind, seed, sc.DropAt+20*time.Second, core.AdaptiveConfig{}))
}

// PostDropWindow is the analysis window after the drop used across
// experiments (the transient the paper measures).
const PostDropWindow = 5 * time.Second

// postDrop summarizes the window [DropAt, DropAt+PostDropWindow).
func postDrop(sc DropScenario, res session.Result) metrics.Report {
	return metrics.Summarize(res.Records, sc.DropAt, sc.DropAt+PostDropWindow, res.FrameInterval)
}

// ---------------------------------------------------------------------------
// Table 1 — post-drop P95 latency, native vs adaptive (the headline).

// Table1Row is one scenario's latency comparison. The CI fields are the
// 95% confidence half-widths over the seeds; Significant reports whether
// the baseline/adaptive means differ at the 95% level (Welch's t-test).
type Table1Row struct {
	Scenario                 DropScenario
	BaselineP95, AdaptiveP95 time.Duration
	BaselineCI, AdaptiveCI   time.Duration
	ReductionPct             float64
	Significant              bool
}

// Table1 runs the drop matrix on the default parallel runner.
func Table1(seeds []int64) []Table1Row { return (&Runner{}).Table1(seeds) }

// Table1 runs the drop matrix and returns one row per scenario. Cells are
// (scenario, controller, seed); results merge in canonical cell order.
func (r *Runner) Table1(seeds []int64) []Table1Row {
	if len(seeds) == 0 {
		seeds = DefaultSeeds()
	}
	scenarios := DropMatrix()
	kinds := []ControllerKind{KindNative, KindAdaptive}
	type cell struct {
		sc   DropScenario
		kind ControllerKind
		seed int64
	}
	cells := make([]cell, 0, len(scenarios)*len(seeds)*len(kinds))
	for _, sc := range scenarios {
		for _, seed := range seeds {
			for _, kind := range kinds {
				cells = append(cells, cell{sc: sc, kind: kind, seed: seed})
			}
		}
	}
	p95s := mapCells(r, len(cells), func(i int) string {
		c := cells[i]
		return fmt.Sprintf("table1 %s %s seed=%d", c.sc, c.kind, c.seed)
	}, func(i int) float64 {
		c := cells[i]
		return postDrop(c.sc, r.runDrop(c.sc, c.kind, c.seed)).P95NetDelay.Seconds()
	})

	var rows []Table1Row
	i := 0
	for _, sc := range scenarios {
		var baseS, adptS []float64
		for range seeds {
			baseS = append(baseS, p95s[i])
			adptS = append(adptS, p95s[i+1])
			i += 2
		}
		base, _ := stats.MeanStd(baseS)
		adpt, _ := stats.MeanStd(adptS)
		rows = append(rows, Table1Row{
			Scenario:     sc,
			BaselineP95:  time.Duration(base * float64(time.Second)),
			AdaptiveP95:  time.Duration(adpt * float64(time.Second)),
			BaselineCI:   time.Duration(stats.CI95(baseS) * float64(time.Second)),
			AdaptiveCI:   time.Duration(stats.CI95(adptS) * float64(time.Second)),
			ReductionPct: (1 - adpt/base) * 100,
			Significant:  stats.SignificantlyDifferent(baseS, adptS),
		})
	}
	return rows
}

// RenderTable1 renders Table 1 as text. Reductions not significant at the
// 95% level are marked "(ns)".
func RenderTable1(rows []Table1Row) string {
	tb := metrics.NewTable("scenario", "content", "baseline P95 (ms)", "adaptive P95 (ms)", "latency reduction")
	lo, hi := 100.0, 0.0
	for _, r := range rows {
		mark := ""
		if !r.Significant {
			mark = " (ns)"
		}
		tb.AddRow(r.Scenario.Name, r.Scenario.Content.String(),
			fmt.Sprintf("%s ±%s", metrics.Ms(r.BaselineP95), metrics.Ms(r.BaselineCI)),
			fmt.Sprintf("%s ±%s", metrics.Ms(r.AdaptiveP95), metrics.Ms(r.AdaptiveCI)),
			fmt.Sprintf("%.2f%%%s", r.ReductionPct, mark))
		if r.ReductionPct < lo {
			lo = r.ReductionPct
		}
		if r.ReductionPct > hi {
			hi = r.ReductionPct
		}
	}
	return fmt.Sprintf("Table 1: post-drop P95 frame latency (window %v after drop, mean ±95%%CI)\n%s\nreduction range: %.2f%% .. %.2f%% (paper: 28.66%% .. 78.87%%)\n",
		PostDropWindow, tb.String(), lo, hi)
}

// ---------------------------------------------------------------------------
// Table 2 — session mean SSIM, native vs adaptive.

// Table2Row is one scenario's quality comparison. Encoded SSIM is what an
// x264 SSIM log would report (delivered frames only); displayed SSIM also
// charges freezes, the receiver-side QoE view.
type Table2Row struct {
	Scenario DropScenario
	// Encoded-quality comparison (the paper's metric).
	BaselineEnc, AdaptiveEnc float64
	EncDeltaPct              float64
	// Displayed-quality comparison (QoE incl. freezes).
	BaselineDisp, AdaptiveDisp float64
	DispDeltaPct               float64
}

// Table2 runs the drop matrix on the default parallel runner.
func Table2(seeds []int64) []Table2Row { return (&Runner{}).Table2(seeds) }

// Table2 runs the drop matrix and compares session mean SSIM in both the
// encoded and displayed senses. Cells are (scenario, controller, seed).
func (r *Runner) Table2(seeds []int64) []Table2Row {
	if len(seeds) == 0 {
		seeds = DefaultSeeds()
	}
	scenarios := DropMatrix()
	kinds := []ControllerKind{KindNative, KindAdaptive}
	type cell struct {
		sc   DropScenario
		kind ControllerKind
		seed int64
	}
	cells := make([]cell, 0, len(scenarios)*len(seeds)*len(kinds))
	for _, sc := range scenarios {
		for _, seed := range seeds {
			for _, kind := range kinds {
				cells = append(cells, cell{sc: sc, kind: kind, seed: seed})
			}
		}
	}
	type ssims struct{ enc, disp float64 }
	reports := mapCells(r, len(cells), func(i int) string {
		c := cells[i]
		return fmt.Sprintf("table2 %s %s seed=%d", c.sc, c.kind, c.seed)
	}, func(i int) ssims {
		c := cells[i]
		rep := r.runDrop(c.sc, c.kind, c.seed).Report
		return ssims{enc: rep.EncodedSSIM, disp: rep.MeanSSIM}
	})

	var rows []Table2Row
	i := 0
	for _, sc := range scenarios {
		var bEnc, aEnc, bDisp, aDisp float64
		for range seeds {
			b, a := reports[i], reports[i+1]
			i += 2
			bEnc += b.enc
			aEnc += a.enc
			bDisp += b.disp
			aDisp += a.disp
		}
		n := float64(len(seeds))
		bEnc, aEnc, bDisp, aDisp = bEnc/n, aEnc/n, bDisp/n, aDisp/n
		rows = append(rows, Table2Row{
			Scenario:     sc,
			BaselineEnc:  bEnc,
			AdaptiveEnc:  aEnc,
			EncDeltaPct:  (aEnc/bEnc - 1) * 100,
			BaselineDisp: bDisp,
			AdaptiveDisp: aDisp,
			DispDeltaPct: (aDisp/bDisp - 1) * 100,
		})
	}
	return rows
}

// RenderTable2 renders Table 2 as text.
func RenderTable2(rows []Table2Row) string {
	tb := metrics.NewTable("scenario", "content",
		"enc SSIM base", "enc SSIM adpt", "enc delta",
		"disp SSIM base", "disp SSIM adpt", "disp delta")
	lo, hi := 1e9, -1e9
	for _, r := range rows {
		tb.AddRow(r.Scenario.Name, r.Scenario.Content.String(),
			fmt.Sprintf("%.4f", r.BaselineEnc), fmt.Sprintf("%.4f", r.AdaptiveEnc),
			fmt.Sprintf("%+.2f%%", r.EncDeltaPct),
			fmt.Sprintf("%.4f", r.BaselineDisp), fmt.Sprintf("%.4f", r.AdaptiveDisp),
			fmt.Sprintf("%+.2f%%", r.DispDeltaPct))
		if r.EncDeltaPct < lo {
			lo = r.EncDeltaPct
		}
		if r.EncDeltaPct > hi {
			hi = r.EncDeltaPct
		}
	}
	return fmt.Sprintf("Table 2: session mean SSIM — encoded (x264-log view, the paper's metric)\nand displayed (QoE incl. freezes)\n%s\nencoded delta range: %+.2f%% .. %+.2f%% (paper: +0.8%% .. +3%%)\n",
		tb.String(), lo, hi)
}

// ---------------------------------------------------------------------------
// Figure 1 — latency timeline around a drop, baseline vs adaptive.

// Figure1Series is one controller's per-frame latency series.
type Figure1Series struct {
	Kind ControllerKind
	// X is capture time in seconds; Y is frame latency in ms.
	X, Y []float64
	// Timeline carries the control-plane samples for the same run.
	Timeline []session.TimelinePoint
}

// Figure1 runs the motivating scenario on the default parallel runner.
func Figure1(seed int64) []Figure1Series { return (&Runner{}).Figure1(seed) }

// Figure1 runs the motivating scenario (2.5 -> 0.8 Mbps at t=10 s,
// talking-head) for the baseline and the adaptive controller.
func (r *Runner) Figure1(seed int64) []Figure1Series {
	sc := DropScenario{
		Name: "2.5->0.8", Before: 2.5e6, After: 0.8e6,
		DropAt: 10 * time.Second, Content: video.TalkingHead,
	}
	kinds := []ControllerKind{KindNative, KindAdaptive}
	return mapCells(r, len(kinds), func(i int) string {
		return fmt.Sprintf("figure1 %s seed=%d", kinds[i], seed)
	}, func(i int) Figure1Series {
		res := r.runDrop(sc, kinds[i], seed)
		x, y := metrics.DelaySeries(res.Records)
		return Figure1Series{Kind: kinds[i], X: x, Y: y, Timeline: res.Timeline}
	})
}

// RenderFigure1 renders both latency series on one ASCII chart around the
// drop window.
func RenderFigure1(series []Figure1Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: frame latency timeline, capacity 2.5->0.8 Mbps at t=10s\n\n")
	var ps []plot.Series
	for _, s := range series {
		// Restrict to the window around the drop.
		var xs, ys []float64
		for i, x := range s.X {
			if x >= 8 && x < 18 {
				xs = append(xs, x)
				ys = append(ys, s.Y[i])
			}
		}
		ps = append(ps, plot.Series{Name: string(s.Kind), X: xs, Y: ys})
	}
	b.WriteString(plot.Line(plot.Config{
		Width: 64, Height: 10,
		XLabel: "capture time (s)", YLabel: "frame latency (ms)",
	}, ps...))
	return b.String()
}
