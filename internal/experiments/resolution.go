package experiments

import (
	"fmt"
	"time"

	"rtcadapt/internal/core"
	"rtcadapt/internal/metrics"
	"rtcadapt/internal/session"
	"rtcadapt/internal/trace"
	"rtcadapt/internal/units"
	"rtcadapt/internal/video"
)

// ---------------------------------------------------------------------------
// Figure 6 — resolution-ladder extension.
//
// The poster's scheme adjusts QP-domain parameters; resolution is the
// next codec parameter an adaptive encoder can move. This experiment
// measures what adding a resolution ladder to the adaptive controller
// buys on severe drops: at starvation bitrates, encoding fewer pixels at
// a sane QP beats encoding all pixels at a crushed QP.

// Figure6Row is one (post-drop bitrate, variant) cell.
type Figure6Row struct {
	// After is the post-drop capacity in bits/s.
	After float64
	// Resolution reports whether the ladder was enabled.
	Resolution bool
	// PostSSIM is the mean displayed SSIM in the 10 s after the drop.
	PostSSIM float64
	// PostP95 is the post-drop P95 latency.
	PostP95 time.Duration
	// Switches counts ladder moves.
	Switches int
	// MeanQP is the average quantizer over delivered post-drop frames.
	MeanQP float64
}

// Figure6 sweeps the resolution ladder on the default parallel runner.
func Figure6(seeds []int64) []Figure6Row { return (&Runner{}).Figure6(seeds) }

// Figure6 sweeps post-drop capacity at a fixed 2.5 Mbps start, comparing
// the adaptive controller with and without the resolution ladder. Cells
// are (post-drop rate, ladder, seed).
func (r *Runner) Figure6(seeds []int64) []Figure6Row {
	if len(seeds) == 0 {
		seeds = DefaultSeeds()
	}
	dropAt := 10 * time.Second
	afters := []float64{1.0e6, 0.6e6, 0.4e6, 0.25e6}
	ladders := []bool{false, true}
	type cell struct {
		after  float64
		useRes bool
		seed   int64
	}
	cells := make([]cell, 0, len(afters)*len(ladders)*len(seeds))
	for _, after := range afters {
		for _, useRes := range ladders {
			for _, seed := range seeds {
				cells = append(cells, cell{after: after, useRes: useRes, seed: seed})
			}
		}
	}
	type sample struct {
		ssim, p95, qp float64
		switches      int
	}
	samples := mapCells(r, len(cells), func(i int) string {
		c := cells[i]
		return fmt.Sprintf("figure6 after=%.2fMbps ladder=%t seed=%d", c.after/1e6, c.useRes, c.seed)
	}, func(i int) sample {
		c := cells[i]
		ctrl := core.NewAdaptive(core.AdaptiveConfig{EnableResolution: c.useRes})
		res := session.Run(session.Config{
			Duration:    dropAt + 20*time.Second,
			Seed:        c.seed,
			Content:     video.Gaming,
			Trace:       trace.StepDrop(2.5e6, units.BitsPerSec(c.after), dropAt),
			InitialRate: 1e6,
			Controller:  ctrl,
		})
		post := metrics.Summarize(res.Records, dropAt, dropAt+10*time.Second, res.FrameInterval)
		out := sample{
			ssim:     post.MeanSSIM,
			p95:      post.P95NetDelay.Seconds(),
			switches: ctrl.ResolutionSwitches(),
		}
		var qpSum float64
		var qpN int
		for _, rec := range res.Records {
			if rec.CaptureTS >= dropAt && rec.Outcome == metrics.Delivered && rec.QP > 0 {
				qpSum += float64(rec.QP)
				qpN++
			}
		}
		if qpN > 0 {
			out.qp = qpSum / float64(qpN)
		}
		return out
	})

	var rows []Figure6Row
	i := 0
	for _, after := range afters {
		for _, useRes := range ladders {
			var ssim, p95, qp float64
			var switches int
			for range seeds {
				s := samples[i]
				i++
				ssim += s.ssim
				p95 += s.p95
				qp += s.qp
				switches += s.switches
			}
			n := float64(len(seeds))
			rows = append(rows, Figure6Row{
				After:      after,
				Resolution: useRes,
				PostSSIM:   ssim / n,
				PostP95:    time.Duration(p95 / n * float64(time.Second)),
				Switches:   switches / len(seeds),
				MeanQP:     qp / n,
			})
		}
	}
	return rows
}

// RenderFigure6 renders the resolution-extension comparison.
func RenderFigure6(rows []Figure6Row) string {
	tb := metrics.NewTable("post-drop rate", "ladder", "post SSIM", "post P95 (ms)", "mean QP", "switches")
	for _, r := range rows {
		mode := "off"
		if r.Resolution {
			mode = "on"
		}
		tb.AddRow(fmt.Sprintf("%.2f Mbps", r.After/1e6), mode,
			fmt.Sprintf("%.4f", r.PostSSIM), metrics.Ms(r.PostP95),
			fmt.Sprintf("%.1f", r.MeanQP), fmt.Sprintf("%d", r.Switches))
	}
	return "Figure 6 (extension): resolution ladder on severe drops (2.5 Mbps start, gaming)\n" + tb.String()
}
