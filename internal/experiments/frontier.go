package experiments

import (
	"fmt"
	"strings"
	"time"

	"rtcadapt/internal/core"
	"rtcadapt/internal/metrics"
	"rtcadapt/internal/netem"
	"rtcadapt/internal/plot"
	"rtcadapt/internal/scenario"
	"rtcadapt/internal/session"
	"rtcadapt/internal/video"
)

// The win-margin frontier: where does the adaptive scheme's latency win
// over the native baseline collapse? The paper evaluates a handful of
// deep 10 s drops; the frontier sweeps the generated drop-magnitude ×
// drop-duration grid under each (loss, RTT) condition and maps the win
// margin across the whole space. The expected shape — motivating the
// related-work comparison — is that deep-and-long drops favor the
// adaptive scheme strongly while shallow-and-short drops are where the
// margin should vanish.

// buildPathConfig assembles a session config for a compiled scenario
// path. A burst-loss rate lowers to a Gilbert-Elliott process with the
// suite's standard mean burst length of 8 packets.
func buildPathConfig(p scenario.Path, content video.Class, kind ControllerKind,
	seed int64, dur time.Duration) session.Config {
	cfg := session.Config{
		Duration:        dur,
		Seed:            seed,
		Content:         content,
		Trace:           p.Trace,
		PropDelay:       p.PropDelay,
		LossProb:        p.Loss,
		QueueLimitBytes: p.Queue,
		NACK:            p.NACK,
		InitialRate:     1e6,
	}
	if p.BurstLoss > 0 {
		cfg.BurstLoss = netem.NewGilbertElliott(8, p.BurstLoss)
	}
	attachController(&cfg, kind, core.AdaptiveConfig{})
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("experiments: bad scenario config: %v", err))
	}
	return cfg
}

// FrontierCell is one grid cell's comparison, averaged over the seeds.
// The analysis window is [DropAt, drop end + PostDropWindow): the whole
// impairment plus the recovery transient.
type FrontierCell struct {
	Point                    scenario.Point
	BaselineP95, AdaptiveP95 time.Duration
	// WinPct is the adaptive scheme's P95 latency reduction vs the
	// baseline, in percent; negative means the baseline won.
	WinPct float64
}

// FrontierResult is the full sweep plus its axes (unique sweep values
// in enumeration order, for table/heatmap layout).
type FrontierResult struct {
	Seeds      []int64
	Cells      []FrontierCell
	Magnitudes []float64
	Durations  []time.Duration
	RTTs       []time.Duration
	Losses     []float64
}

// Frontier runs the sweep on the default parallel runner.
func Frontier(g scenario.Grid, seeds []int64) (FrontierResult, error) {
	return (&Runner{}).Frontier(g, seeds)
}

// Frontier sweeps the grid with the native baseline and the adaptive
// controller. Cells are (grid point, controller, seed); results merge in
// canonical cell order, so output is byte-identical at any worker count.
func (r *Runner) Frontier(g scenario.Grid, seeds []int64) (FrontierResult, error) {
	if len(seeds) == 0 {
		seeds = DefaultSeeds()
	}
	points, err := g.Points()
	if err != nil {
		return FrontierResult{}, err
	}
	kinds := []ControllerKind{KindNative, KindAdaptive}
	type cell struct {
		point scenario.Point
		kind  ControllerKind
		seed  int64
	}
	cells := make([]cell, 0, len(points)*len(seeds)*len(kinds))
	for _, pt := range points {
		for _, seed := range seeds {
			for _, kind := range kinds {
				cells = append(cells, cell{point: pt, kind: kind, seed: seed})
			}
		}
	}
	p95s := mapCells(r, len(cells), func(i int) string {
		c := cells[i]
		return fmt.Sprintf("frontier %s %s seed=%d", c.point.Scenario.Name, c.kind, c.seed)
	}, func(i int) float64 {
		c := cells[i]
		path, err := c.point.Scenario.Compile(scenario.CompileConfig{Seed: c.seed})
		if err != nil {
			panic(fmt.Sprintf("experiments: frontier cell %q: %v", c.point.Scenario.Name, err))
		}
		res := session.Run(buildPathConfig(path, video.TalkingHead, c.kind, c.seed, path.Duration))
		dropAt := c.point.Scenario.Phases[0].Duration
		windowEnd := dropAt + c.point.DropDur + PostDropWindow
		return metrics.Summarize(res.Records, dropAt, windowEnd, res.FrameInterval).P95NetDelay.Seconds()
	})

	out := FrontierResult{Seeds: seeds}
	i := 0
	for _, pt := range points {
		var base, adpt float64
		for range seeds {
			base += p95s[i]
			adpt += p95s[i+1]
			i += 2
		}
		base /= float64(len(seeds))
		adpt /= float64(len(seeds))
		win := 0.0
		if base > 0 {
			win = (base - adpt) / base * 100
		}
		out.Cells = append(out.Cells, FrontierCell{
			Point:       pt,
			BaselineP95: time.Duration(base * float64(time.Second)),
			AdaptiveP95: time.Duration(adpt * float64(time.Second)),
			WinPct:      win,
		})
		out.Magnitudes = appendUniqueFloat(out.Magnitudes, pt.Magnitude)
		out.Durations = appendUniqueDur(out.Durations, pt.DropDur)
		out.RTTs = appendUniqueDur(out.RTTs, pt.RTT)
		out.Losses = appendUniqueFloat(out.Losses, pt.Loss)
	}
	return out, nil
}

// appendUniqueFloat appends v if absent, preserving encounter order.
// Sweep axis values are enumerated, never computed, so equality is
// exact.
func appendUniqueFloat(vals []float64, v float64) []float64 {
	for _, have := range vals {
		//lint:ignore floateq sweep axis values are enumerated constants, not computed floats
		if have == v {
			return vals
		}
	}
	return append(vals, v)
}

// appendUniqueDur appends v if absent, preserving encounter order.
func appendUniqueDur(vals []time.Duration, v time.Duration) []time.Duration {
	for _, have := range vals {
		if have == v {
			return vals
		}
	}
	return append(vals, v)
}

// RenderFrontier renders the sweep: per (loss, RTT) condition, a
// win-margin table (magnitude rows × duration columns) and the matching
// ASCII heatmap, all on one shared intensity scale so panels compare.
func RenderFrontier(res FrontierResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Frontier: adaptive vs %s win margin (post-drop P95 latency reduction, %%)\n", KindNative)
	fmt.Fprintf(&b, "window [drop, drop end + %v); %d seed(s)\n", PostDropWindow, len(res.Seeds))

	// Shared scale across panels.
	lo, hi := 0.0, 0.0
	for _, c := range res.Cells {
		if c.WinPct < lo {
			lo = c.WinPct
		}
		if c.WinPct > hi {
			hi = c.WinPct
		}
	}

	rowLabels := make([]string, len(res.Magnitudes))
	for i, m := range res.Magnitudes {
		rowLabels[i] = fmt.Sprintf("-%.0f%%", m*100)
	}
	colLabels := make([]string, len(res.Durations))
	for i, d := range res.Durations {
		colLabels[i] = d.String()
	}

	// Cells arrive in canonical grid order: loss, rtt, magnitude,
	// duration (fastest last); consume them panel by panel.
	i := 0
	for _, loss := range res.Losses {
		for _, rtt := range res.RTTs {
			fmt.Fprintf(&b, "\nloss=%s%% rtt=%v\n", trimFloat(loss*100), rtt)
			tbl := metrics.NewTable(append([]string{"drop \\ for"}, colLabels...)...)
			grid := make([][]float64, len(res.Magnitudes))
			for mi := range res.Magnitudes {
				cells := []string{rowLabels[mi]}
				grid[mi] = make([]float64, len(res.Durations))
				for di := range res.Durations {
					c := res.Cells[i]
					i++
					grid[mi][di] = c.WinPct
					cells = append(cells, fmt.Sprintf("%.1f", c.WinPct))
				}
				tbl.AddRow(cells...)
			}
			b.WriteString(tbl.String())
			b.WriteString(plot.Heatmap(plot.HeatmapConfig{
				RowLabels: rowLabels,
				ColLabels: colLabels,
				RowAxis:   "drop magnitude",
				ColAxis:   "drop duration",
				Min:       lo,
				Max:       hi,
			}, grid))
		}
	}
	return b.String()
}

// trimFloat renders a float compactly ("2" not "2.000000").
func trimFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", v), "0"), ".")
}

// ---------------------------------------------------------------------------
// Preset mini-sweep — the scenario-smoke corpus check.

// ScenarioRow is one (preset, controller) whole-session summary.
type ScenarioRow struct {
	Scenario      string
	Kind          ControllerKind
	P95           time.Duration
	MeanSSIM      float64
	DeliveredFrac float64
}

// ScenarioTable runs each scenario under the given controllers for one
// session per seed, summarizing the whole session. Model scenarios
// generate dur of capacity; phased scenarios use their natural duration.
func (r *Runner) ScenarioTable(scenarios []scenario.Scenario, kinds []ControllerKind,
	seeds []int64, dur time.Duration) ([]ScenarioRow, error) {
	if len(seeds) == 0 {
		seeds = DefaultSeeds()
	}
	for _, sc := range scenarios {
		if err := sc.Validate(); err != nil {
			return nil, err
		}
	}
	type cell struct {
		sc   scenario.Scenario
		kind ControllerKind
		seed int64
	}
	var cells []cell
	for _, sc := range scenarios {
		for _, kind := range kinds {
			for _, seed := range seeds {
				cells = append(cells, cell{sc: sc, kind: kind, seed: seed})
			}
		}
	}
	reports := mapCells(r, len(cells), func(i int) string {
		c := cells[i]
		return fmt.Sprintf("scenario %s %s seed=%d", c.sc.Name, c.kind, c.seed)
	}, func(i int) metrics.Report {
		c := cells[i]
		path, err := c.sc.Compile(scenario.CompileConfig{Seed: c.seed, Duration: dur})
		if err != nil {
			panic(fmt.Sprintf("experiments: scenario %q: %v", c.sc.Name, err))
		}
		res := session.Run(buildPathConfig(path, video.TalkingHead, c.kind, c.seed, path.Duration))
		return metrics.SummarizeAll(res.Records, res.FrameInterval)
	})

	var rows []ScenarioRow
	i := 0
	for _, sc := range scenarios {
		for _, kind := range kinds {
			var p95, ssim, delivered float64
			for range seeds {
				rep := reports[i]
				i++
				p95 += rep.P95NetDelay.Seconds()
				ssim += rep.MeanSSIM
				if rep.Frames > 0 {
					delivered += float64(rep.DeliveredFrames) / float64(rep.Frames)
				}
			}
			n := float64(len(seeds))
			rows = append(rows, ScenarioRow{
				Scenario:      sc.Name,
				Kind:          kind,
				P95:           time.Duration(p95 / n * float64(time.Second)),
				MeanSSIM:      ssim / n,
				DeliveredFrac: delivered / n,
			})
		}
	}
	return rows, nil
}

// RenderScenarioTable renders the preset mini-sweep.
func RenderScenarioTable(rows []ScenarioRow) string {
	tbl := metrics.NewTable("scenario", "controller", "p95_ms", "mean_ssim", "delivered")
	for _, r := range rows {
		tbl.AddRow(r.Scenario, string(r.Kind), metrics.Ms(r.P95),
			fmt.Sprintf("%.4f", r.MeanSSIM), metrics.Pct(r.DeliveredFrac))
	}
	return "Scenario corpus mini-sweep (whole-session summaries):\n" + tbl.String()
}
