package experiments

import (
	"fmt"
	"time"

	"rtcadapt/internal/core"
	"rtcadapt/internal/metrics"
	"rtcadapt/internal/session"
	"rtcadapt/internal/trace"
	"rtcadapt/internal/video"
)

// ---------------------------------------------------------------------------
// Figure 7 — multi-flow fairness.
//
// Two flows share a 3 Mbps bottleneck; the second joins at t=10 s. From
// flow A's perspective the join IS a sudden bandwidth drop — the exact
// event the paper targets — so this experiment both validates coexistence
// (no starvation, bounded latency) and exercises the adaptive scheme
// against a competing-flow-induced drop rather than a link-rate change.

// Figure7Row is one pairing's outcome, averaged over seeds.
type Figure7Row struct {
	// Pairing names the controller combination, e.g. "adaptive+adaptive".
	Pairing string
	// RateA and RateB are steady-state bitrates (t=20..30 s), bits/s.
	RateA, RateB float64
	// Jain is Jain's fairness index over the two steady rates.
	Jain float64
	// P95A is flow A's P95 latency in the 5 s after B joins.
	P95A time.Duration
	// SSIMA is flow A's displayed SSIM over the whole session.
	SSIMA float64
}

// Figure7 runs the fairness pairings on the default parallel runner.
func Figure7(seeds []int64) []Figure7Row { return (&Runner{}).Figure7(seeds) }

// figure7JoinAt is when flow B joins the shared link.
const figure7JoinAt = 10 * time.Second

// figure7Pairing is one controller combination: the constructors of flow
// A's and flow B's controllers.
type figure7Pairing struct {
	name     string
	mkA, mkB func() core.Controller
}

// figure7Sample is what one cell measures.
type figure7Sample struct{ rateA, rateB, jain, p95, ssim float64 }

// figure7Cell runs one two-flow cell on a bottleneck with the given
// capacity trace, in w's shared shell. The Results are borrowed, as
// worker.run's is.
func (w *worker) figure7Cell(bottleneck *trace.Trace, p figure7Pairing, seed int64) figure7Sample {
	w.resetSched()
	if w.shared == nil {
		w.shared = new(session.SharedShell)
	}
	results := w.shared.RunBorrowed(w.sched,
		session.SharedConfig{Trace: bottleneck, Seed: seed + 500},
		[]session.Config{
			{
				Duration: 30 * time.Second, Seed: seed,
				Content: video.TalkingHead, InitialRate: 1e6,
				Controller: p.mkA(),
			},
			{
				Duration: 20 * time.Second, StartAt: figure7JoinAt, Seed: seed + 50,
				Content: video.TalkingHead, InitialRate: 1e6,
				Controller: p.mkB(),
			},
		},
	)
	a := w.summ.Summarize(results[0].Records, 20*time.Second, 30*time.Second, results[0].FrameInterval)
	b := w.summ.Summarize(results[1].Records, 20*time.Second, 30*time.Second, results[1].FrameInterval)
	post := w.summ.Summarize(results[0].Records, figure7JoinAt, figure7JoinAt+5*time.Second, results[0].FrameInterval)
	return figure7Sample{
		rateA: a.Bitrate,
		rateB: b.Bitrate,
		jain:  jainIndex(a.Bitrate, b.Bitrate),
		p95:   post.P95NetDelay.Seconds(),
		ssim:  results[0].Report.MeanSSIM,
	}
}

// figure7Pairings are the pairings in row order.
func figure7Pairings() []figure7Pairing {
	return []figure7Pairing{
		{"adaptive+adaptive",
			func() core.Controller { return core.NewAdaptive(core.AdaptiveConfig{}) },
			func() core.Controller { return core.NewAdaptive(core.AdaptiveConfig{}) }},
		{"adaptive+native",
			func() core.Controller { return core.NewAdaptive(core.AdaptiveConfig{}) },
			func() core.Controller { return core.NewNativeRC() }},
		{"native+native",
			func() core.Controller { return core.NewNativeRC() },
			func() core.Controller { return core.NewNativeRC() }},
	}
}

// Figure7 runs the pairings {adaptive+adaptive, adaptive+native,
// native+native} on a shared 3 Mbps link. Cells are (pairing, seed); one
// cell is one two-flow shared-link run.
func (r *Runner) Figure7(seeds []int64) []Figure7Row {
	if len(seeds) == 0 {
		seeds = DefaultSeeds()
	}
	pairings := figure7Pairings()
	// Traces are read-only, so every cell's bottleneck shares one.
	bottleneck := trace.Constant(3e6)
	type cell struct {
		pairing figure7Pairing
		seed    int64
	}
	cells := make([]cell, 0, len(pairings)*len(seeds))
	for _, p := range pairings {
		for _, seed := range seeds {
			cells = append(cells, cell{pairing: p, seed: seed})
		}
	}
	samples := mapCells(r, len(cells), func(i int) string {
		c := cells[i]
		return fmt.Sprintf("figure7 %s seed=%d", c.pairing.name, c.seed)
	}, func(w *worker, i int) figure7Sample {
		return w.figure7Cell(bottleneck, cells[i].pairing, cells[i].seed)
	})

	var rows []Figure7Row
	i := 0
	for _, p := range pairings {
		var rateA, rateB, jain, p95, ssim float64
		for range seeds {
			s := samples[i]
			i++
			rateA += s.rateA
			rateB += s.rateB
			jain += s.jain
			p95 += s.p95
			ssim += s.ssim
		}
		n := float64(len(seeds))
		rows = append(rows, Figure7Row{
			Pairing: p.name,
			RateA:   rateA / n,
			RateB:   rateB / n,
			Jain:    jain / n,
			P95A:    time.Duration(p95 / n * float64(time.Second)),
			SSIMA:   ssim / n,
		})
	}
	return rows
}

// jainIndex computes Jain's fairness index for two allocations.
func jainIndex(xs ...float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// RenderFigure7 renders the fairness table.
func RenderFigure7(rows []Figure7Row) string {
	tb := metrics.NewTable("pairing", "rate A (Mbps)", "rate B (Mbps)", "Jain", "A post-join P95 (ms)", "A SSIM")
	for _, r := range rows {
		tb.AddRow(r.Pairing,
			fmt.Sprintf("%.2f", r.RateA/1e6), fmt.Sprintf("%.2f", r.RateB/1e6),
			fmt.Sprintf("%.3f", r.Jain), metrics.Ms(r.P95A), fmt.Sprintf("%.4f", r.SSIMA))
	}
	return "Figure 7 (extension): two flows sharing 3 Mbps, flow B joins at t=10s\n" + tb.String()
}
