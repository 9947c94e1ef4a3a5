package experiments

import (
	"fmt"
	"time"

	"rtcadapt/internal/cc"
	"rtcadapt/internal/core"
	"rtcadapt/internal/metrics"
	"rtcadapt/internal/session"
	"rtcadapt/internal/trace"
	"rtcadapt/internal/video"
)

// ---------------------------------------------------------------------------
// Figure 8 — bandwidth-estimator comparison under the adaptive controller.
//
// The paper's mechanism consumes whatever estimate the congestion
// controller produces; this experiment swaps the estimator (GCC's delay
// gradients, BBR-style delivery rate, loss-only, and the clairvoyant
// oracle) to show how much of the end-to-end result depends on estimator
// choice versus the encoder-side actions.

// Figure8Row is one estimator's outcome on the canonical drop.
type Figure8Row struct {
	Estimator string
	// PostP95 is post-drop P95 latency; SteadyRate the achieved bitrate
	// in the last 10 s; MeanSSIM the session displayed quality.
	PostP95    time.Duration
	SteadyRate float64
	MeanSSIM   float64
}

// Figure8 runs the estimator comparison on the default parallel runner.
func Figure8(seeds []int64) []Figure8Row { return (&Runner{}).Figure8(seeds) }

// Figure8 runs the 2.5->0.8 Mbps drop with the adaptive controller under
// each estimator. Cells are (estimator, seed).
func (r *Runner) Figure8(seeds []int64) []Figure8Row {
	if len(seeds) == 0 {
		seeds = DefaultSeeds()
	}
	dropAt := 10 * time.Second
	estimators := []struct {
		name string
		mk   func(capacity cc.CapacityFunc) cc.Estimator
	}{
		{"gcc", nil}, // session default
		{"bbr", func(cc.CapacityFunc) cc.Estimator { return cc.NewBBR(1e6) }},
		{"loss-based", func(cc.CapacityFunc) cc.Estimator { return cc.NewLossBased(1e6) }},
		{"oracle", func(capacity cc.CapacityFunc) cc.Estimator { return cc.NewOracle(capacity, 0.95) }},
	}
	type cell struct {
		estimator int
		seed      int64
	}
	cells := make([]cell, 0, len(estimators)*len(seeds))
	for ei := range estimators {
		for _, seed := range seeds {
			cells = append(cells, cell{estimator: ei, seed: seed})
		}
	}
	type sample struct{ p95, rate, ssim float64 }
	samples := mapCells(r, len(cells), func(i int) string {
		c := cells[i]
		return fmt.Sprintf("figure8 %s seed=%d", estimators[c.estimator].name, c.seed)
	}, func(i int) sample {
		c := cells[i]
		e := estimators[c.estimator]
		cfg := session.Config{
			Duration:    30 * time.Second,
			Seed:        c.seed,
			Content:     video.TalkingHead,
			Trace:       trace.StepDrop(2.5e6, 0.8e6, dropAt),
			InitialRate: 1e6,
			Controller:  core.NewAdaptive(core.AdaptiveConfig{}),
		}
		if e.mk != nil {
			mk := e.mk
			cfg.NewEstimator = func(capacity cc.CapacityFunc) cc.Estimator { return mk(capacity) }
		}
		if err := cfg.Validate(); err != nil {
			panic(fmt.Sprintf("experiments: bad figure8 config: %v", err))
		}
		res := session.Run(cfg)
		post := metrics.Summarize(res.Records, dropAt, dropAt+5*time.Second, res.FrameInterval)
		late := metrics.Summarize(res.Records, 20*time.Second, 30*time.Second, res.FrameInterval)
		return sample{
			p95:  post.P95NetDelay.Seconds(),
			rate: late.Bitrate,
			ssim: res.Report.MeanSSIM,
		}
	})

	var rows []Figure8Row
	i := 0
	for _, e := range estimators {
		var p95, rate, ssim float64
		for range seeds {
			s := samples[i]
			i++
			p95 += s.p95
			rate += s.rate
			ssim += s.ssim
		}
		n := float64(len(seeds))
		rows = append(rows, Figure8Row{
			Estimator:  e.name,
			PostP95:    time.Duration(p95 / n * float64(time.Second)),
			SteadyRate: rate / n,
			MeanSSIM:   ssim / n,
		})
	}
	return rows
}

// RenderFigure8 renders the estimator comparison.
func RenderFigure8(rows []Figure8Row) string {
	tb := metrics.NewTable("estimator", "post-drop P95 (ms)", "steady rate (Mbps)", "mean SSIM")
	for _, r := range rows {
		tb.AddRow(r.Estimator, metrics.Ms(r.PostP95),
			fmt.Sprintf("%.2f", r.SteadyRate/1e6), fmt.Sprintf("%.4f", r.MeanSSIM))
	}
	return "Figure 8 (extension): estimator comparison, adaptive controller on 2.5->0.8 Mbps\n" + tb.String()
}
