package main

import (
	"strconv"
	"time"

	"rtcadapt/internal/experiments"
	"rtcadapt/internal/scenario"
)

// output is one experiment's result in both -format forms. Rendering is
// cheap next to running the cells, so each id runs once and the format
// only picks which form is printed.
type output struct {
	text string
	rows [][]string // CSV: a header, then one row per data point
}

// params are the flags an experiment reads.
type params struct {
	seeds     []int64
	seed      int64 // -seed, for the single-run Figure 1
	grid      scenario.Grid
	scenarios string
	duration  time.Duration
}

// CSV cell formats.
func ms(d time.Duration) string { return strconv.FormatFloat(d.Seconds()*1000, 'f', 1, 64) }
func f4(v float64) string       { return strconv.FormatFloat(v, 'f', 4, 64) }
func f2(v float64) string       { return strconv.FormatFloat(v, 'f', 2, 64) }
func f0(v float64) string       { return strconv.FormatFloat(v, 'f', 0, 64) }
func onoff(v bool) string {
	if v {
		return "on"
	}
	return "off"
}

// experimentTable maps every -exp id to the one function that runs it on
// r; text and CSV both come from that run, so the two formats cannot
// disagree on what ran.
func experimentTable(r *experiments.Runner, p *params) map[string]func() (output, error) {
	return map[string]func() (output, error){
		"table1": func() (output, error) {
			res := r.Table1(p.seeds)
			rows := [][]string{{"scenario", "content", "baseline_p95_ms", "baseline_ci_ms", "adaptive_p95_ms", "adaptive_ci_ms", "reduction_pct", "significant"}}
			for _, x := range res {
				rows = append(rows, []string{x.Scenario.Name, x.Scenario.Content.String(),
					ms(x.BaselineP95), ms(x.BaselineCI), ms(x.AdaptiveP95), ms(x.AdaptiveCI),
					f2(x.ReductionPct), strconv.FormatBool(x.Significant)})
			}
			return output{experiments.RenderTable1(res), rows}, nil
		},
		"table2": func() (output, error) {
			res := r.Table2(p.seeds)
			rows := [][]string{{"scenario", "content", "enc_base", "enc_adaptive", "enc_delta_pct", "disp_base", "disp_adaptive", "disp_delta_pct"}}
			for _, x := range res {
				rows = append(rows, []string{x.Scenario.Name, x.Scenario.Content.String(),
					f4(x.BaselineEnc), f4(x.AdaptiveEnc), f2(x.EncDeltaPct),
					f4(x.BaselineDisp), f4(x.AdaptiveDisp), f2(x.DispDeltaPct)})
			}
			return output{experiments.RenderTable2(res), rows}, nil
		},
		"table3": func() (output, error) {
			res := r.Table3(p.seeds)
			rows := [][]string{{"variant", "p95_ms", "mean_ssim", "p95_vs_full_pct"}}
			for _, x := range res {
				rows = append(rows, []string{x.Variant, ms(x.P95), f4(x.MeanSSIM), f2(x.DeltaVsFull)})
			}
			return output{experiments.RenderTable3(res), rows}, nil
		},
		"figure1": func() (output, error) {
			res := r.Figure1(p.seed)
			rows := [][]string{{"controller", "capture_s", "latency_ms"}}
			for _, s := range res {
				for i := range s.X {
					rows = append(rows, []string{string(s.Kind),
						strconv.FormatFloat(s.X[i], 'f', 3, 64),
						strconv.FormatFloat(s.Y[i], 'f', 1, 64)})
				}
			}
			return output{experiments.RenderFigure1(res), rows}, nil
		},
		"figure2": func() (output, error) {
			res := r.Figure2(p.seeds)
			rows := [][]string{{"severity", "baseline_p95_ms", "adaptive_p95_ms", "reduction_pct"}}
			for _, x := range res {
				rows = append(rows, []string{f2(x.Severity), ms(x.BaselineP95), ms(x.AdaptiveP95), f2(x.ReductionPct)})
			}
			return output{experiments.RenderFigure2(res), rows}, nil
		},
		"figure3": func() (output, error) {
			res := r.Figure3(p.seeds)
			rows := [][]string{{"controller", "latency_ms", "cdf"}}
			for _, s := range res {
				for i := range s.DelaysMs {
					rows = append(rows, []string{string(s.Kind),
						strconv.FormatFloat(s.DelaysMs[i], 'f', 1, 64),
						strconv.FormatFloat(s.Fractions[i], 'f', 4, 64)})
				}
			}
			return output{experiments.RenderFigure3(res), rows}, nil
		},
		"figure4": func() (output, error) {
			res := r.Figure4(p.seeds)
			rows := [][]string{{"trace", "content", "controller", "p95_ms", "mean_ssim", "longest_freeze_ms", "mos"}}
			for _, x := range res {
				rows = append(rows, []string{x.TraceName, x.Content.String(), string(x.Kind),
					ms(x.P95), f4(x.MeanSSIM), ms(x.FreezeTime), f2(x.MOS)})
			}
			return output{experiments.RenderFigure4(res), rows}, nil
		},
		"figure5": func() (output, error) {
			res := r.Figure5(p.seeds)
			rows := [][]string{{"loss", "mode", "delivered_frac", "p95_ms", "mean_ssim", "pli", "rtx", "fec_recovered"}}
			for _, x := range res {
				rows = append(rows, []string{x.Condition.Name, string(x.Mode),
					f4(x.DeliveredFrac), ms(x.P95), f4(x.MeanSSIM),
					strconv.Itoa(x.PLI), strconv.Itoa(x.Retransmitted), strconv.Itoa(x.FECRecovered)})
			}
			return output{experiments.RenderFigure5(res), rows}, nil
		},
		"figure6": func() (output, error) {
			res := r.Figure6(p.seeds)
			rows := [][]string{{"after_bps", "ladder", "post_ssim", "post_p95_ms", "mean_qp", "switches"}}
			for _, x := range res {
				rows = append(rows, []string{f0(x.After), onoff(x.Resolution),
					f4(x.PostSSIM), ms(x.PostP95), f2(x.MeanQP), strconv.Itoa(x.Switches)})
			}
			return output{experiments.RenderFigure6(res), rows}, nil
		},
		"figure7": func() (output, error) {
			res := r.Figure7(p.seeds)
			rows := [][]string{{"pairing", "rate_a_bps", "rate_b_bps", "jain", "a_post_join_p95_ms", "a_ssim"}}
			for _, x := range res {
				rows = append(rows, []string{x.Pairing, f0(x.RateA), f0(x.RateB),
					f4(x.Jain), ms(x.P95A), f4(x.SSIMA)})
			}
			return output{experiments.RenderFigure7(res), rows}, nil
		},
		"figure8": func() (output, error) {
			res := r.Figure8(p.seeds)
			rows := [][]string{{"estimator", "post_p95_ms", "steady_rate_bps", "mean_ssim"}}
			for _, x := range res {
				rows = append(rows, []string{x.Estimator, ms(x.PostP95), f0(x.SteadyRate), f4(x.MeanSSIM)})
			}
			return output{experiments.RenderFigure8(res), rows}, nil
		},
		"figure9": func() (output, error) {
			res := r.Figure9(p.seeds)
			rows := [][]string{{"receiver", "layer_selection", "p95_ms", "delivered_frac", "mean_ssim", "mos"}}
			for _, x := range res {
				rows = append(rows, []string{x.Receiver, onoff(x.LayerSelection),
					ms(x.P95), f4(x.DeliveredFrac), f4(x.MeanSSIM), f2(x.MOS)})
			}
			return output{experiments.RenderFigure9(res), rows}, nil
		},
		"figure10": func() (output, error) {
			res := r.Figure10(p.seeds)
			rows := [][]string{{"controller", "probing", "reclaim_s", "post_restore_ssim"}}
			for _, x := range res {
				rows = append(rows, []string{x.Controller, onoff(x.Probing),
					f2(x.ReclaimTime.Seconds()), f4(x.PostRestoreSSIM)})
			}
			return output{experiments.RenderFigure10(res), rows}, nil
		},
		"frontier": func() (output, error) {
			res, err := r.Frontier(p.grid, p.seeds)
			if err != nil {
				return output{}, err
			}
			rows := [][]string{{"loss", "rtt_ms", "magnitude", "drop_s", "baseline_p95_ms", "adaptive_p95_ms", "win_pct"}}
			for _, c := range res.Cells {
				rows = append(rows, []string{f4(c.Point.Loss), ms(c.Point.RTT), f2(c.Point.Magnitude),
					strconv.FormatFloat(c.Point.DropDur.Seconds(), 'f', 1, 64),
					ms(c.BaselineP95), ms(c.AdaptiveP95), f2(c.WinPct)})
			}
			return output{experiments.RenderFrontier(res), rows}, nil
		},
		"scenarios": func() (output, error) {
			scs, err := resolveScenarios(p.scenarios)
			if err != nil {
				return output{}, err
			}
			res, err := r.ScenarioTable(scs,
				[]experiments.ControllerKind{experiments.KindNative, experiments.KindAdaptive},
				p.seeds, p.duration)
			if err != nil {
				return output{}, err
			}
			rows := [][]string{{"scenario", "controller", "p95_ms", "mean_ssim", "delivered_frac"}}
			for _, x := range res {
				rows = append(rows, []string{x.Scenario, string(x.Kind), ms(x.P95), f4(x.MeanSSIM), f4(x.DeliveredFrac)})
			}
			return output{experiments.RenderScenarioTable(res), rows}, nil
		},
	}
}
