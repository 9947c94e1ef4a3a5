package experiments

import (
	"fmt"
	"time"

	"rtcadapt/internal/core"
	"rtcadapt/internal/metrics"
	"rtcadapt/internal/netem"
	"rtcadapt/internal/session"
	"rtcadapt/internal/trace"
	"rtcadapt/internal/video"
)

// ---------------------------------------------------------------------------
// Figure 5 — loss robustness: PLI-only vs NACK retransmission.
//
// The poster's system operates over real networks where bandwidth drops
// coincide with loss; this extension experiment verifies the transport
// substrate degrades sanely and that NACK repair keeps the adaptive
// controller's quality win intact under loss.

// LossCondition is one loss configuration.
type LossCondition struct {
	// Name labels the row.
	Name string
	// Random is the Bernoulli loss probability.
	Random float64
	// BurstLen and BurstRate configure Gilbert-Elliott loss (0 = none).
	BurstLen  float64
	BurstRate float64
}

// Figure5Conditions is the swept loss grid.
func Figure5Conditions() []LossCondition {
	return []LossCondition{
		{Name: "0%", Random: 0},
		{Name: "0.5%", Random: 0.005},
		{Name: "1%", Random: 0.01},
		{Name: "2%", Random: 0.02},
		{Name: "5%", Random: 0.05},
		{Name: "burst-2%", BurstLen: 8, BurstRate: 0.02},
		{Name: "burst-5%", BurstLen: 8, BurstRate: 0.05},
	}
}

// RecoveryMode names a loss-recovery configuration.
type RecoveryMode string

// Recovery modes compared in Figure 5.
const (
	ModePLIOnly RecoveryMode = "pli-only"
	ModeNACK    RecoveryMode = "nack"
	ModeFEC     RecoveryMode = "fec"
	ModeFECNACK RecoveryMode = "fec+nack"
)

// RecoveryModes lists the compared configurations.
func RecoveryModes() []RecoveryMode {
	return []RecoveryMode{ModePLIOnly, ModeNACK, ModeFEC, ModeFECNACK}
}

// Figure5Row is one (condition, recovery mode) cell.
type Figure5Row struct {
	Condition LossCondition
	Mode      RecoveryMode
	// DeliveredFrac is the fraction of frame slots actually displayed.
	DeliveredFrac float64
	P95           time.Duration
	MeanSSIM      float64
	PLI           int
	Retransmitted int
	FECRecovered  int
}

// Figure5 runs the loss-robustness sweep on the default parallel runner.
func Figure5(seeds []int64) []Figure5Row { return (&Runner{}).Figure5(seeds) }

// Figure5 runs a 30 s session at constant 2 Mbps per condition under each
// recovery mode, averaging over seeds. FEC uses one repair per 4 media
// packets (25% overhead). Cells are (condition, mode, seed).
func (r *Runner) Figure5(seeds []int64) []Figure5Row {
	if len(seeds) == 0 {
		seeds = DefaultSeeds()
	}
	conds := Figure5Conditions()
	modes := RecoveryModes()
	cells := figure5Cells(conds, modes, seeds)
	type sample struct {
		frac, p95, ssim float64
		pli, rtx, fec   int
	}
	samples := mapCells(r, len(cells), func(i int) string {
		c := cells[i]
		return fmt.Sprintf("figure5 %s/%s seed=%d", c.cond.Name, c.mode, c.seed)
	}, func(w *worker, i int) sample {
		c := cells[i]
		res := w.run(c.config())
		return sample{
			frac: float64(res.Report.DeliveredFrames) / float64(res.Report.Frames),
			p95:  res.Report.P95NetDelay.Seconds(),
			ssim: res.Report.MeanSSIM,
			pli:  res.PLISent,
			rtx:  res.Retransmitted,
			fec:  res.FECRecovered,
		}
	})

	var rows []Figure5Row
	i := 0
	for _, cond := range conds {
		for _, mode := range modes {
			var frac, p95, ssim float64
			var pli, rtx, fecRec int
			for range seeds {
				s := samples[i]
				i++
				frac += s.frac
				p95 += s.p95
				ssim += s.ssim
				pli += s.pli
				rtx += s.rtx
				fecRec += s.fec
			}
			n := float64(len(seeds))
			rows = append(rows, Figure5Row{
				Condition:     cond,
				Mode:          mode,
				DeliveredFrac: frac / n,
				P95:           time.Duration(p95 / n * float64(time.Second)),
				MeanSSIM:      ssim / n,
				PLI:           pli / len(seeds),
				Retransmitted: rtx / len(seeds),
				FECRecovered:  fecRec / len(seeds),
			})
		}
	}
	return rows
}

// figure5Cell is one (condition, mode, seed) cell of Figure 5.
type figure5Cell struct {
	cond LossCondition
	mode RecoveryMode
	seed int64
	link *trace.Trace
}

// figure5Cells lists the sweep's cells in row order. Traces are
// read-only, so every cell's constant 2 Mbps link shares one.
func figure5Cells(conds []LossCondition, modes []RecoveryMode, seeds []int64) []figure5Cell {
	link := trace.Constant(2e6)
	cells := make([]figure5Cell, 0, len(conds)*len(modes)*len(seeds))
	for _, cond := range conds {
		for _, mode := range modes {
			for _, seed := range seeds {
				cells = append(cells, figure5Cell{cond: cond, mode: mode, seed: seed, link: link})
			}
		}
	}
	return cells
}

// config builds the cell's session: 30 s at a constant 2 Mbps under the
// condition's loss and the mode's recovery.
func (c figure5Cell) config() session.Config {
	cfg := session.Config{
		Duration:    30 * time.Second,
		Seed:        c.seed,
		Content:     video.TalkingHead,
		Trace:       c.link,
		InitialRate: 1e6,
		LossProb:    c.cond.Random,
		Controller:  core.NewAdaptive(core.AdaptiveConfig{}),
	}
	switch c.mode {
	case ModeNACK:
		cfg.NACK = true
	case ModeFEC:
		cfg.FECGroupSize = 4
	case ModeFECNACK:
		cfg.NACK = true
		cfg.FECGroupSize = 4
	}
	if c.cond.BurstRate > 0 {
		cfg.BurstLoss = netem.NewGilbertElliott(c.cond.BurstLen, c.cond.BurstRate)
	}
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("experiments: bad figure5 config: %v", err))
	}
	return cfg
}

// RenderFigure5 renders the loss-robustness table.
func RenderFigure5(rows []Figure5Row) string {
	tb := metrics.NewTable("loss", "recovery", "delivered", "P95 (ms)", "mean SSIM", "PLI", "rtx", "fec-rec")
	for _, r := range rows {
		tb.AddRow(r.Condition.Name, string(r.Mode),
			fmt.Sprintf("%.1f%%", r.DeliveredFrac*100),
			metrics.Ms(r.P95), fmt.Sprintf("%.4f", r.MeanSSIM),
			fmt.Sprintf("%d", r.PLI), fmt.Sprintf("%d", r.Retransmitted),
			fmt.Sprintf("%d", r.FECRecovered))
	}
	return "Figure 5 (extension): loss robustness, adaptive controller @ 2 Mbps\n" + tb.String()
}
