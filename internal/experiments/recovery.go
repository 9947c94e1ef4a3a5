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
// Figure 10 — capacity-restoration recovery.
//
// The paper's scheme handles the drop; this extension measures the other
// edge: when capacity comes back, how long until the user gets their
// quality back? GCC's multiplicative increase reclaims ~8%/s, so a
// 0.8 -> 2.5 Mbps restoration takes >10 s unless the sender probes.

// Figure10Row is one (controller, probing) cell.
type Figure10Row struct {
	Controller string
	Probing    bool
	// ReclaimTime is how long after restoration the encode rate regains
	// 1.8 Mbps (capped at the observation window when never reclaimed).
	ReclaimTime time.Duration
	// PostRestoreSSIM is mean displayed SSIM in the 15 s after restore.
	PostRestoreSSIM float64
}

// Figure10 runs the recovery comparison on the default parallel runner.
func Figure10(seeds []int64) []Figure10Row { return (&Runner{}).Figure10(seeds) }

// Figure10 runs the drop-and-recover trace under native/adaptive with and
// without probing. Cells are (controller, probing, seed).
func (r *Runner) Figure10(seeds []int64) []Figure10Row {
	if len(seeds) == 0 {
		seeds = DefaultSeeds()
	}
	dropAt, restoreAt := 10*time.Second, 20*time.Second
	dur := 45 * time.Second
	kinds := []ControllerKind{KindNative, KindAdaptive}
	probings := []bool{false, true}
	type cell struct {
		kind    ControllerKind
		probing bool
		seed    int64
	}
	cells := make([]cell, 0, len(kinds)*len(probings)*len(seeds))
	for _, kind := range kinds {
		for _, probing := range probings {
			for _, seed := range seeds {
				cells = append(cells, cell{kind: kind, probing: probing, seed: seed})
			}
		}
	}
	type sample struct{ reclaim, ssim float64 }
	samples := mapCells(r, len(cells), func(i int) string {
		c := cells[i]
		return fmt.Sprintf("figure10 %s probing=%t seed=%d", c.kind, c.probing, c.seed)
	}, func(i int) sample {
		c := cells[i]
		cfg := session.Config{
			Duration:    dur,
			Seed:        c.seed,
			Content:     video.TalkingHead,
			Trace:       trace.StepDropRecover(2.5e6, 0.8e6, dropAt, restoreAt),
			InitialRate: 1e6,
			Probing:     c.probing,
		}
		switch c.kind {
		case KindNative:
			cfg.Controller = core.NewNativeRC()
		default:
			cfg.Controller = core.NewAdaptive(core.AdaptiveConfig{})
		}
		if err := cfg.Validate(); err != nil {
			panic(fmt.Sprintf("experiments: bad figure10 config: %v", err))
		}
		res := session.Run(cfg)
		const reclaimedAt units.BitsPerSec = 1.8e6
		rt := dur - restoreAt // cap: never reclaimed
		for _, p := range res.Timeline {
			if p.At >= restoreAt && p.EncoderTarget >= reclaimedAt {
				rt = p.At - restoreAt
				break
			}
		}
		post := metrics.Summarize(res.Records, restoreAt, restoreAt+15*time.Second, res.FrameInterval)
		return sample{reclaim: rt.Seconds(), ssim: post.MeanSSIM}
	})

	var rows []Figure10Row
	i := 0
	for _, kind := range kinds {
		for _, probing := range probings {
			var reclaim, ssim float64
			for range seeds {
				reclaim += samples[i].reclaim
				ssim += samples[i].ssim
				i++
			}
			n := float64(len(seeds))
			rows = append(rows, Figure10Row{
				Controller:      string(kind),
				Probing:         probing,
				ReclaimTime:     time.Duration(reclaim / n * float64(time.Second)),
				PostRestoreSSIM: ssim / n,
			})
		}
	}
	return rows
}

// RenderFigure10 renders the recovery comparison.
func RenderFigure10(rows []Figure10Row) string {
	tb := metrics.NewTable("controller", "probing", "reclaim to 1.8 Mbps", "post-restore SSIM")
	for _, r := range rows {
		mode := "off"
		if r.Probing {
			mode = "on"
		}
		tb.AddRow(r.Controller, mode,
			fmt.Sprintf("%.1f s", r.ReclaimTime.Seconds()),
			fmt.Sprintf("%.4f", r.PostRestoreSSIM))
	}
	return "Figure 10 (extension): reclaiming restored capacity (0.8 -> 2.5 Mbps at t=20s)\n" + tb.String()
}
