package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"rtcadapt/internal/core"
	"rtcadapt/internal/metrics"
	"rtcadapt/internal/scenario"
	"rtcadapt/internal/units"
	"rtcadapt/internal/video"
)

// ---------------------------------------------------------------------------
// Figure 2 — latency reduction vs drop severity.

// Figure2Point is one severity sample.
type Figure2Point struct {
	// Severity is the fraction of capacity lost (0.2 = drop to 80%).
	Severity     float64
	BaselineP95  time.Duration
	AdaptiveP95  time.Duration
	ReductionPct float64
}

// Figure2 sweeps drop severity on the default parallel runner.
func Figure2(seeds []int64) []Figure2Point { return (&Runner{}).Figure2(seeds) }

// Figure2 sweeps drop severity at a fixed 2.5 Mbps starting capacity.
// Cells are (severity, controller, seed).
func (r *Runner) Figure2(seeds []int64) []Figure2Point {
	if len(seeds) == 0 {
		seeds = DefaultSeeds()
	}
	severities := []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	kinds := []ControllerKind{KindNative, KindAdaptive}
	type cell struct {
		sc   DropScenario
		kind ControllerKind
		seed int64
	}
	cells := make([]cell, 0, len(severities)*len(kinds)*len(seeds))
	for _, sev := range severities {
		sc := DropScenario{
			Name:    fmt.Sprintf("sev-%.1f", sev),
			Before:  2.5e6,
			After:   units.BitsPerSec(2.5e6 * (1 - sev)),
			DropAt:  10 * time.Second,
			Content: video.TalkingHead,
		}
		for _, kind := range kinds {
			for _, seed := range seeds {
				cells = append(cells, cell{sc: sc, kind: kind, seed: seed})
			}
		}
	}
	p95s := mapCells(r, len(cells), func(i int) string {
		c := cells[i]
		return fmt.Sprintf("figure2 %s %s seed=%d", c.sc.Name, c.kind, c.seed)
	}, func(w *worker, i int) float64 {
		c := cells[i]
		return r.drop(w, c.sc, c.kind, c.seed).post.P95NetDelay.Seconds()
	})

	var out []Figure2Point
	i := 0
	meanNext := func() float64 {
		var sum float64
		for range seeds {
			sum += p95s[i]
			i++
		}
		return sum / float64(len(seeds))
	}
	for _, sev := range severities {
		base := meanNext()
		adpt := meanNext()
		out = append(out, Figure2Point{
			Severity:     sev,
			BaselineP95:  time.Duration(base * float64(time.Second)),
			AdaptiveP95:  time.Duration(adpt * float64(time.Second)),
			ReductionPct: (1 - adpt/base) * 100,
		})
	}
	return out
}

// RenderFigure2 renders the severity sweep.
func RenderFigure2(points []Figure2Point) string {
	tb := metrics.NewTable("severity", "baseline P95 (ms)", "adaptive P95 (ms)", "latency reduction")
	for _, p := range points {
		tb.AddRow(fmt.Sprintf("%.0f%%", p.Severity*100),
			metrics.Ms(p.BaselineP95), metrics.Ms(p.AdaptiveP95),
			fmt.Sprintf("%.2f%%", p.ReductionPct))
	}
	return "Figure 2: latency reduction vs drop severity (2.5 Mbps start)\n" + tb.String()
}

// ---------------------------------------------------------------------------
// Figure 3 — post-drop latency CDF, all controllers.

// Figure3Series is one controller's latency CDF.
type Figure3Series struct {
	Kind ControllerKind
	// DelaysMs is sorted; Fractions[i] is the CDF at DelaysMs[i].
	DelaysMs, Fractions []float64
	// P50 and P95 are convenience quantiles in ms.
	P50, P95 float64
}

// Figure3 runs the controller CDF comparison on the default parallel
// runner.
func Figure3(seeds []int64) []Figure3Series { return (&Runner{}).Figure3(seeds) }

// Figure3 runs the canonical drop under every controller kind, pooling
// post-drop frame latencies across seeds. Cells are (controller, seed);
// each series pools its seeds' post-drop windows in seed order.
func (r *Runner) Figure3(seeds []int64) []Figure3Series {
	if len(seeds) == 0 {
		seeds = DefaultSeeds()
	}
	sc := DropScenario{
		Name: "2.5->0.8", Before: 2.5e6, After: 0.8e6,
		DropAt: 10 * time.Second, Content: video.TalkingHead,
	}
	kinds := Kinds()
	type cell struct {
		kind ControllerKind
		seed int64
	}
	cells := make([]cell, 0, len(kinds)*len(seeds))
	for _, kind := range kinds {
		for _, seed := range seeds {
			cells = append(cells, cell{kind: kind, seed: seed})
		}
	}
	ledgers := mapCells(r, len(cells), func(i int) string {
		c := cells[i]
		return fmt.Sprintf("figure3 %s seed=%d", c.kind, c.seed)
	}, func(w *worker, i int) []metrics.FrameRecord {
		c := cells[i]
		return postDropRecords(sc, w.runDrop(sc, c.kind, c.seed).Records)
	})

	var out []Figure3Series
	i := 0
	for _, kind := range kinds {
		var pooled []metrics.FrameRecord
		for range seeds {
			pooled = append(pooled, ledgers[i]...)
			i++
		}
		ds, fs := metrics.CDF(pooled, sc.DropAt, sc.DropAt+PostDropWindow)
		s := Figure3Series{Kind: kind, DelaysMs: ds, Fractions: fs}
		s.P50 = quantileOf(ds, 0.50)
		s.P95 = quantileOf(ds, 0.95)
		out = append(out, s)
	}
	return out
}

// postDropRecords copies the records captured in the post-drop window out
// of a borrowed ledger, which is in capture order: the only records
// Figure 3's CDF reads.
func postDropRecords(sc DropScenario, records []metrics.FrameRecord) []metrics.FrameRecord {
	byCapture := func(r metrics.FrameRecord, t time.Duration) int { return cmp.Compare(r.CaptureTS, t) }
	from, _ := slices.BinarySearchFunc(records, sc.DropAt, byCapture)
	to, _ := slices.BinarySearchFunc(records, sc.DropAt+PostDropWindow, byCapture)
	return slices.Clone(records[from:to])
}

func quantileOf(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// RenderFigure3 renders the CDF summary.
func RenderFigure3(series []Figure3Series) string {
	tb := metrics.NewTable("controller", "frames", "P50 (ms)", "P95 (ms)")
	for _, s := range series {
		tb.AddRow(string(s.Kind), fmt.Sprintf("%d", len(s.DelaysMs)),
			fmt.Sprintf("%.1f", s.P50), fmt.Sprintf("%.1f", s.P95))
	}
	return "Figure 3: post-drop frame latency CDF (2.5->0.8 Mbps)\n" + tb.String()
}

// ---------------------------------------------------------------------------
// Table 3 — mechanism ablation.

// Table3Row is one ablation variant.
type Table3Row struct {
	Variant     string
	P95         time.Duration
	MeanSSIM    float64
	DeltaVsFull float64 // P95 change vs the full scheme, percent
}

// allDisabled is the adaptive controller reduced to fast retargeting only
// (equivalent in spirit to reset-only, but with the same drop-state
// machinery), the base for the "+mechanism" direction.
func allDisabled() core.AdaptiveConfig {
	return core.AdaptiveConfig{
		DisableQPClamp:    true,
		DisableFrameCap:   true,
		DisableVBVReinit:  true,
		DisableSkip:       true,
		DisableKFSuppress: true,
		DisableDropMargin: true,
	}
}

// Table3 measures each adaptive mechanism in both directions on a severe
// gaming-content drop: "full -X" removes one mechanism from the full
// scheme (marginal contribution), "base +X" adds one mechanism to the
// retarget-only base (standalone contribution). Mechanisms overlap, so the
// two directions differ.
func Table3(seeds []int64) []Table3Row { return (&Runner{}).Table3(seeds) }

// Table3 measures the mechanism ablation; see the package-level Table3.
// Cells are (variant, seed).
func (r *Runner) Table3(seeds []int64) []Table3Row {
	if len(seeds) == 0 {
		seeds = DefaultSeeds()
	}
	sc := DropScenario{
		Name: "2.5->0.6", Before: 2.5e6, After: 0.6e6,
		DropAt: 10 * time.Second, Content: video.Gaming,
	}
	enable := func(mut func(*core.AdaptiveConfig)) core.AdaptiveConfig {
		cfg := allDisabled()
		mut(&cfg)
		return cfg
	}
	variants := []struct {
		name string
		cfg  core.AdaptiveConfig
	}{
		{"full", core.AdaptiveConfig{}},
		{"full -qp-clamp", core.AdaptiveConfig{DisableQPClamp: true}},
		{"full -frame-cap", core.AdaptiveConfig{DisableFrameCap: true}},
		{"full -vbv-reinit", core.AdaptiveConfig{DisableVBVReinit: true}},
		{"full -skip", core.AdaptiveConfig{DisableSkip: true}},
		{"full -kf-suppress", core.AdaptiveConfig{DisableKFSuppress: true}},
		{"full -margin", core.AdaptiveConfig{DisableDropMargin: true}},
		{"base (retarget only)", allDisabled()},
		{"base +qp-clamp", enable(func(c *core.AdaptiveConfig) { c.DisableQPClamp = false })},
		{"base +frame-cap", enable(func(c *core.AdaptiveConfig) { c.DisableFrameCap = false })},
		{"base +vbv-reinit", enable(func(c *core.AdaptiveConfig) { c.DisableVBVReinit = false })},
		{"base +skip", enable(func(c *core.AdaptiveConfig) { c.DisableSkip = false })},
		{"base +kf-suppress", enable(func(c *core.AdaptiveConfig) { c.DisableKFSuppress = false })},
		{"base +margin", enable(func(c *core.AdaptiveConfig) { c.DisableDropMargin = false })},
	}
	type cell struct {
		variant int
		seed    int64
	}
	cells := make([]cell, 0, len(variants)*len(seeds))
	for vi := range variants {
		for _, seed := range seeds {
			cells = append(cells, cell{variant: vi, seed: seed})
		}
	}
	type sample struct{ p95, ssim float64 }
	samples := mapCells(r, len(cells), func(i int) string {
		c := cells[i]
		return fmt.Sprintf("table3 %q seed=%d", variants[c.variant].name, c.seed)
	}, func(w *worker, i int) sample {
		c := cells[i]
		res := w.run(buildConfig(sc.path(), sc.Content, KindAdaptive, c.seed,
			sc.DropAt+20*time.Second, variants[c.variant].cfg))
		return sample{p95: w.postDrop(sc, res).P95NetDelay.Seconds(), ssim: res.Report.MeanSSIM}
	})

	var rows []Table3Row
	var fullP95 float64
	i := 0
	for _, v := range variants {
		var p95, ssim float64
		for range seeds {
			p95 += samples[i].p95
			ssim += samples[i].ssim
			i++
		}
		p95 /= float64(len(seeds))
		ssim /= float64(len(seeds))
		if v.name == "full" {
			fullP95 = p95
		}
		delta := 0.0
		if fullP95 > 0 {
			delta = (p95/fullP95 - 1) * 100
		}
		rows = append(rows, Table3Row{
			Variant:     v.name,
			P95:         time.Duration(p95 * float64(time.Second)),
			MeanSSIM:    ssim,
			DeltaVsFull: delta,
		})
	}
	return rows
}

// RenderTable3 renders the ablation table.
func RenderTable3(rows []Table3Row) string {
	tb := metrics.NewTable("variant", "post-drop P95 (ms)", "mean SSIM", "P95 vs full")
	for _, r := range rows {
		tb.AddRow(r.Variant, metrics.Ms(r.P95),
			fmt.Sprintf("%.4f", r.MeanSSIM), fmt.Sprintf("%+.1f%%", r.DeltaVsFull))
	}
	return "Table 3: adaptive-mechanism ablation (2.5->0.6 Mbps, gaming)\n" + tb.String()
}

// ---------------------------------------------------------------------------
// Figure 4 — trace-driven evaluation on LTE/WiFi-like capacity.

// Figure4Row is one (trace, content, controller) cell.
type Figure4Row struct {
	TraceName  string
	Content    video.Class
	Kind       ControllerKind
	P95        time.Duration
	MeanSSIM   float64
	FreezeTime time.Duration
	// MOS is the mean-opinion-score QoE estimate (1..5).
	MOS float64
}

// Figure4 runs the trace-driven evaluation on the default parallel
// runner.
func Figure4(seeds []int64) []Figure4Row { return (&Runner{}).Figure4(seeds) }

// Figure4 runs 60 s sessions on synthetic LTE and WiFi traces across all
// content classes and controllers. Cells are (trace, content, controller,
// seed). Each (trace, seed) path is compiled once, before the cells run,
// and shared by the cells of every content and controller: a compiled
// path is read-only, so concurrent sessions may share one.
func (r *Runner) Figure4(seeds []int64) []Figure4Row {
	if len(seeds) == 0 {
		seeds = DefaultSeeds()
	}
	// Each model draws its capacity from the session seed plus its own
	// offset, so the LTE and WiFi traces of one seed are independent.
	type traceGen struct {
		sc         scenario.Scenario
		seedOffset int64
	}
	gens := []traceGen{
		{scenario.Scenario{Name: "lte", Model: &scenario.Model{Kind: "lte", Mean: 2.5e6, FadeProb: 0.02}}, 1000},
		{scenario.Scenario{Name: "wifi", Model: &scenario.Model{Kind: "wifi", Mean: 4e6}}, 2000},
	}
	contents := []video.Class{video.TalkingHead, video.ScreenShare, video.Gaming, video.Sports}
	kinds := []ControllerKind{KindNative, KindResetOnly, KindAdaptive}
	paths := make([][]scenario.Path, len(gens))
	for gi, g := range gens {
		paths[gi] = make([]scenario.Path, len(seeds))
		for si, seed := range seeds {
			paths[gi][si] = mustCompile(g.sc, scenario.CompileConfig{Seed: seed + g.seedOffset, Duration: 60 * time.Second})
		}
	}
	type cell struct {
		gen, seed int // indices into gens and seeds
		content   video.Class
		kind      ControllerKind
	}
	cells := make([]cell, 0, len(gens)*len(contents)*len(kinds)*len(seeds))
	for gi := range gens {
		for _, content := range contents {
			for _, kind := range kinds {
				for si := range seeds {
					cells = append(cells, cell{gen: gi, seed: si, content: content, kind: kind})
				}
			}
		}
	}
	type sample struct{ p95, ssim, freeze, mos float64 }
	samples := mapCells(r, len(cells), func(i int) string {
		c := cells[i]
		return fmt.Sprintf("figure4 %s/%s %s seed=%d", gens[c.gen].sc.Name, c.content, c.kind, seeds[c.seed])
	}, func(w *worker, i int) sample {
		c := cells[i]
		path := paths[c.gen][c.seed]
		res := w.run(buildConfig(path, c.content, c.kind, seeds[c.seed], 60*time.Second, core.AdaptiveConfig{}))
		return sample{
			p95:    res.Report.P95NetDelay.Seconds(),
			ssim:   res.Report.MeanSSIM,
			freeze: res.Report.LongestFreeze.Seconds(),
			mos:    metrics.MOS(res.Report),
		}
	})

	var rows []Figure4Row
	i := 0
	for _, g := range gens {
		for _, content := range contents {
			for _, kind := range kinds {
				var p95, ssim, freeze, mos float64
				for range seeds {
					p95 += samples[i].p95
					ssim += samples[i].ssim
					freeze += samples[i].freeze
					mos += samples[i].mos
					i++
				}
				n := float64(len(seeds))
				p95, ssim, freeze, mos = p95/n, ssim/n, freeze/n, mos/n
				rows = append(rows, Figure4Row{
					TraceName:  g.sc.Name,
					Content:    content,
					Kind:       kind,
					P95:        time.Duration(p95 * float64(time.Second)),
					MeanSSIM:   ssim,
					FreezeTime: time.Duration(freeze * float64(time.Second)),
					MOS:        mos,
				})
			}
		}
	}
	return rows
}

// RenderFigure4 renders the trace-driven comparison.
func RenderFigure4(rows []Figure4Row) string {
	tb := metrics.NewTable("trace", "content", "controller", "P95 (ms)", "mean SSIM", "longest freeze (ms)", "MOS")
	for _, r := range rows {
		tb.AddRow(r.TraceName, r.Content.String(), string(r.Kind),
			metrics.Ms(r.P95), fmt.Sprintf("%.4f", r.MeanSSIM), metrics.Ms(r.FreezeTime),
			fmt.Sprintf("%.2f", r.MOS))
	}
	return "Figure 4: trace-driven evaluation (60 s synthetic LTE/WiFi)\n" + tb.String()
}
