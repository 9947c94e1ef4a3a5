package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// quickSeeds keeps experiment tests fast; full runs use DefaultSeeds.
var quickSeeds = []int64{1, 2}

func TestDropMatrixShape(t *testing.T) {
	m := DropMatrix()
	if len(m) != 12 {
		t.Fatalf("matrix has %d scenarios, want 12", len(m))
	}
	for _, sc := range m {
		if sc.After >= sc.Before {
			t.Errorf("%v: not a drop", sc)
		}
		if sc.DropAt != 10*time.Second {
			t.Errorf("%v: DropAt %v", sc, sc.DropAt)
		}
	}
}

func TestTable1HeadlineShape(t *testing.T) {
	rows := Table1(quickSeeds)
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	positive := 0
	for _, r := range rows {
		if r.AdaptiveP95 <= 0 || r.BaselineP95 <= 0 {
			t.Errorf("%v: non-positive latencies %v/%v", r.Scenario, r.BaselineP95, r.AdaptiveP95)
		}
		if r.ReductionPct > 0 {
			positive++
		}
	}
	// The paper's claim: adaptive wins. Require it on at least 10/12
	// scenarios and a large win somewhere.
	if positive < 10 {
		t.Errorf("adaptive wins only %d/12 scenarios", positive)
	}
	maxRed := 0.0
	for _, r := range rows {
		if r.ReductionPct > maxRed {
			maxRed = r.ReductionPct
		}
	}
	if maxRed < 40 {
		t.Errorf("max latency reduction %.1f%%, want a large win on severe drops", maxRed)
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "paper: 28.66%") {
		t.Error("render missing expected framing")
	}
}

func TestTable2QualityShape(t *testing.T) {
	rows := Table2(quickSeeds)
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	encOK, dispOK := 0, 0
	for _, r := range rows {
		for _, v := range []float64{r.BaselineEnc, r.AdaptiveEnc, r.BaselineDisp, r.AdaptiveDisp} {
			if v <= 0 || v > 1 {
				t.Errorf("%v: SSIM %v out of range", r.Scenario, v)
			}
		}
		if r.EncDeltaPct > -0.5 {
			encOK++
		}
		if r.DispDeltaPct > -0.3 {
			dispOK++
		}
	}
	// The paper: adaptive slightly improves quality. Require
	// no-meaningful-loss on at least 10/12 scenarios in both senses.
	if encOK < 10 {
		t.Errorf("encoded quality preserved on only %d/12 scenarios", encOK)
	}
	if dispOK < 10 {
		t.Errorf("displayed quality preserved on only %d/12 scenarios", dispOK)
	}
	if out := RenderTable2(rows); !strings.Contains(out, "Table 2") {
		t.Error("render broken")
	}
}

func TestFigure1Series(t *testing.T) {
	series := Figure1(1)
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.X) < 500 {
			t.Errorf("%v: only %d points", s.Kind, len(s.X))
		}
		if len(s.Timeline) == 0 {
			t.Errorf("%v: no timeline", s.Kind)
		}
	}
	// The baseline's peak latency around the drop must exceed the
	// adaptive peak — the figure's visual message.
	peak := func(s Figure1Series) float64 {
		m := 0.0
		for i, x := range s.X {
			if x >= 10 && x < 15 && s.Y[i] > m {
				m = s.Y[i]
			}
		}
		return m
	}
	if peak(series[0]) <= peak(series[1]) {
		t.Errorf("baseline peak %.0fms not above adaptive %.0fms", peak(series[0]), peak(series[1]))
	}
	out := RenderFigure1(series)
	if !strings.Contains(out, "native-rc") || !strings.Contains(out, "adaptive") {
		t.Error("render missing series")
	}
}

func TestFigure2MonotoneTrend(t *testing.T) {
	points := Figure2(quickSeeds)
	if len(points) != 8 {
		t.Fatalf("points = %d", len(points))
	}
	// Reduction should be substantial for severe drops: compare the
	// mean over mild (first 3) vs severe (last 3) severities.
	mild, severe := 0.0, 0.0
	for i, p := range points {
		if i < 3 {
			mild += p.ReductionPct
		}
		if i >= len(points)-3 {
			severe += p.ReductionPct
		}
	}
	if severe/3 < mild/3-10 {
		t.Errorf("severe-drop reduction (%.1f%%) collapsed below mild (%.1f%%)", severe/3, mild/3)
	}
	if severe/3 < 30 {
		t.Errorf("severe-drop reduction %.1f%%, want > 30%%", severe/3)
	}
	if out := RenderFigure2(points); !strings.Contains(out, "Figure 2") {
		t.Error("render broken")
	}
}

func TestFigure3Ordering(t *testing.T) {
	series := Figure3(quickSeeds)
	if len(series) != 4 {
		t.Fatalf("series = %d", len(series))
	}
	byKind := map[ControllerKind]Figure3Series{}
	for _, s := range series {
		if len(s.DelaysMs) == 0 {
			t.Fatalf("%v: empty CDF", s.Kind)
		}
		byKind[s.Kind] = s
	}
	// Expected ordering at P95: native worst; adaptive better than
	// reset-only; oracle at least as good as GCC-adaptive (allow small
	// noise).
	if !(byKind[KindAdaptive].P95 < byKind[KindNative].P95) {
		t.Errorf("adaptive P95 %.0f not below native %.0f",
			byKind[KindAdaptive].P95, byKind[KindNative].P95)
	}
	if !(byKind[KindAdaptive].P95 <= byKind[KindResetOnly].P95*1.05) {
		t.Errorf("adaptive P95 %.0f above reset-only %.0f",
			byKind[KindAdaptive].P95, byKind[KindResetOnly].P95)
	}
	if out := RenderFigure3(series); !strings.Contains(out, "oracle") {
		t.Error("render broken")
	}
}

func TestTable3AblationShape(t *testing.T) {
	rows := Table3(quickSeeds)
	if len(rows) != 14 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Variant != "full" {
		t.Fatal("first row must be the full scheme")
	}
	byName := map[string]Table3Row{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	full := byName["full"].P95
	base := byName["base (retarget only)"].P95
	// The mechanisms as a whole must matter: the retarget-only base is
	// clearly worse than the full scheme.
	if base < full*110/100 {
		t.Errorf("retarget-only base P95 %v not clearly above full %v", base, full)
	}
	// At least one standalone mechanism improves on the base.
	improved := 0
	for _, name := range []string{"base +qp-clamp", "base +frame-cap", "base +vbv-reinit", "base +skip", "base +kf-suppress", "base +margin"} {
		if byName[name].P95 < base {
			improved++
		}
	}
	if improved < 2 {
		t.Errorf("only %d standalone mechanisms improve on the base", improved)
	}
	if out := RenderTable3(rows); !strings.Contains(out, "full -vbv-reinit") {
		t.Error("render broken")
	}
}

func TestFigure4TraceDriven(t *testing.T) {
	rows := Figure4([]int64{1})
	if len(rows) != 24 { // 2 traces x 4 contents x 3 controllers
		t.Fatalf("rows = %d", len(rows))
	}
	// Adaptive must beat native P95 on average across cells.
	var nat, adp float64
	var n int
	cell := map[string]Figure4Row{}
	for _, r := range rows {
		cell[r.TraceName+"/"+r.Content.String()+"/"+string(r.Kind)] = r
	}
	for _, tr := range []string{"lte", "wifi"} {
		for _, ct := range []string{"talking-head", "screen-share", "gaming", "sports"} {
			nat += cell[tr+"/"+ct+"/native-rc"].P95.Seconds()
			adp += cell[tr+"/"+ct+"/adaptive"].P95.Seconds()
			n++
		}
	}
	if adp/float64(n) >= nat/float64(n) {
		t.Errorf("adaptive mean P95 %.0fms not below native %.0fms on traces",
			adp/float64(n)*1000, nat/float64(n)*1000)
	}
	if out := RenderFigure4(rows); !strings.Contains(out, "lte") {
		t.Error("render broken")
	}
}

func TestFigure5LossRobustness(t *testing.T) {
	rows := Figure5([]int64{1})
	if len(rows) != 28 { // 7 conditions x 4 modes
		t.Fatalf("rows = %d", len(rows))
	}
	cell := map[string]Figure5Row{}
	for _, r := range rows {
		cell[r.Condition.Name+"/"+string(r.Mode)] = r
	}
	// Zero loss: every mode delivers essentially everything.
	for _, m := range RecoveryModes() {
		if got := cell["0%/"+string(m)].DeliveredFrac; got < 0.95 {
			t.Errorf("zero-loss delivery under %s: %.3f", m, got)
		}
	}
	// At 2% loss NACK and FEC must each dominate PLI-only by a wide
	// margin.
	base := cell["2%/pli-only"].DeliveredFrac
	if cell["2%/nack"].DeliveredFrac < base+0.3 {
		t.Errorf("NACK gain too small at 2%%: %.3f vs %.3f", cell["2%/nack"].DeliveredFrac, base)
	}
	if cell["2%/fec"].DeliveredFrac < base+0.3 {
		t.Errorf("FEC gain too small at 2%%: %.3f vs %.3f", cell["2%/fec"].DeliveredFrac, base)
	}
	// FEC actually recovers packets under loss, and not at zero loss.
	if cell["2%/fec"].FECRecovered == 0 {
		t.Error("no FEC recoveries at 2% loss")
	}
	if cell["0%/fec"].FECRecovered > 5 {
		t.Errorf("phantom FEC recoveries at zero loss: %d", cell["0%/fec"].FECRecovered)
	}
	// NACK actually retransmits under loss, not at zero loss.
	if cell["2%/nack"].Retransmitted == 0 {
		t.Error("no retransmissions at 2% loss")
	}
	if cell["0%/nack"].Retransmitted > 5 {
		t.Errorf("phantom retransmissions at zero loss: %d", cell["0%/nack"].Retransmitted)
	}
	// Combined fec+nack is at least as good as either alone at 5% loss.
	combo := cell["5%/fec+nack"].DeliveredFrac
	if combo < cell["5%/fec"].DeliveredFrac-0.02 || combo < cell["5%/nack"].DeliveredFrac-0.02 {
		t.Errorf("fec+nack (%.3f) worse than components (%.3f / %.3f)",
			combo, cell["5%/fec"].DeliveredFrac, cell["5%/nack"].DeliveredFrac)
	}
	if out := RenderFigure5(rows); !strings.Contains(out, "burst-5%") {
		t.Error("render broken")
	}
}

func TestFigure6ResolutionCrossover(t *testing.T) {
	rows := Figure6([]int64{1})
	if len(rows) != 8 { // 4 rates x 2 variants
		t.Fatalf("rows = %d", len(rows))
	}
	cell := map[string]Figure6Row{}
	for _, r := range rows {
		key := fmt.Sprintf("%.2f", r.After/1e6)
		if r.Resolution {
			key += "/on"
		}
		cell[key] = r
	}
	// At starvation (0.25 Mbps) the ladder must be transformative: far
	// lower latency and clearly better quality than QP-only.
	off, on := cell["0.25"], cell["0.25/on"]
	if on.PostP95 >= off.PostP95/2 {
		t.Errorf("ladder P95 %v not far below QP-only %v at 0.25 Mbps", on.PostP95, off.PostP95)
	}
	if on.PostSSIM < off.PostSSIM+0.1 {
		t.Errorf("ladder SSIM %.4f not clearly above QP-only %.4f at 0.25 Mbps", on.PostSSIM, off.PostSSIM)
	}
	if on.Switches == 0 {
		t.Error("ladder never switched at starvation bitrate")
	}
	// At a moderate drop (1.0 Mbps) the two variants are comparable —
	// the ladder must not hurt meaningfully.
	moff, mon := cell["1.00"], cell["1.00/on"]
	if mon.PostSSIM < moff.PostSSIM-0.03 {
		t.Errorf("ladder hurt moderate-drop SSIM: %.4f vs %.4f", mon.PostSSIM, moff.PostSSIM)
	}
	// The ladder lowers QP (per-pixel quality) wherever it engages.
	if mon.Switches > 0 && mon.MeanQP >= moff.MeanQP {
		t.Errorf("ladder did not relieve QP: %.1f vs %.1f", mon.MeanQP, moff.MeanQP)
	}
	if out := RenderFigure6(rows); !strings.Contains(out, "ladder") {
		t.Error("render broken")
	}
}

func TestFigure7Fairness(t *testing.T) {
	rows := Figure7([]int64{1})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// No starvation: both flows hold a real share.
		if r.RateA < 0.3e6 || r.RateB < 0.3e6 {
			t.Errorf("%s: starvation (%.2f / %.2f Mbps)", r.Pairing, r.RateA/1e6, r.RateB/1e6)
		}
		// Combined rate within capacity.
		if r.RateA+r.RateB > 3.3e6 {
			t.Errorf("%s: combined %.2f Mbps exceeds capacity", r.Pairing, (r.RateA+r.RateB)/1e6)
		}
		if r.Jain < 0.7 || r.Jain > 1.0 {
			t.Errorf("%s: Jain index %.3f", r.Pairing, r.Jain)
		}
		// Flow A must survive B's join without a latency disaster.
		if r.P95A > time.Second {
			t.Errorf("%s: post-join P95 %v", r.Pairing, r.P95A)
		}
	}
	if out := RenderFigure7(rows); !strings.Contains(out, "Jain") {
		t.Error("render broken")
	}
}

func TestFigure8EstimatorOrdering(t *testing.T) {
	rows := Figure8([]int64{1})
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Figure8Row{}
	for _, r := range rows {
		byName[r.Estimator] = r
	}
	// Loss-based must be the worst latency: it only reacts after the
	// queue overflows.
	for _, name := range []string{"gcc", "bbr", "oracle"} {
		if byName["loss-based"].PostP95 <= byName[name].PostP95 {
			t.Errorf("loss-based P95 %v not above %s %v",
				byName["loss-based"].PostP95, name, byName[name].PostP95)
		}
	}
	// The oracle bounds achievable post-drop latency.
	if byName["oracle"].PostP95 >= byName["gcc"].PostP95 {
		t.Errorf("oracle P95 %v not below gcc %v", byName["oracle"].PostP95, byName["gcc"].PostP95)
	}
	// Every estimator keeps a usable steady rate except loss-based,
	// which collapses after repeated overflow episodes.
	for _, name := range []string{"gcc", "bbr", "oracle"} {
		if byName[name].SteadyRate < 0.4e6 {
			t.Errorf("%s steady rate %.2f Mbps too low", name, byName[name].SteadyRate/1e6)
		}
	}
	if out := RenderFigure8(rows); !strings.Contains(out, "bbr") {
		t.Error("render broken")
	}
}

func TestFigure9SFULayerSelection(t *testing.T) {
	rows := Figure9([]int64{1})
	if len(rows) != 4 { // 2 receivers x 2 modes
		t.Fatalf("rows = %d", len(rows))
	}
	cell := map[string]Figure9Row{}
	for _, r := range rows {
		key := r.Receiver
		if r.LayerSelection {
			key += "/on"
		}
		cell[key] = r
	}
	weakOff, weakOn := cell["weak-1.5Mbps"], cell["weak-1.5Mbps/on"]
	strongOff, strongOn := cell["strong-3.0Mbps"], cell["strong-3.0Mbps/on"]
	// Layer selection must transform the weak receiver's latency and QoE.
	if weakOn.P95 >= weakOff.P95/2 {
		t.Errorf("weak receiver P95 %v not far below unfiltered %v", weakOn.P95, weakOff.P95)
	}
	if weakOn.MOS < weakOff.MOS+1 {
		t.Errorf("weak receiver MOS %.2f vs %.2f: layer selection did not pay", weakOn.MOS, weakOff.MOS)
	}
	// The strong receiver keeps the full stream and must not get worse.
	if strongOn.MOS < strongOff.MOS-0.2 {
		t.Errorf("strong receiver hurt by layer selection: MOS %.2f -> %.2f", strongOff.MOS, strongOn.MOS)
	}
	if strongOn.DeliveredFrac < 0.95 {
		t.Errorf("strong receiver delivered %.3f with layer selection", strongOn.DeliveredFrac)
	}
	if out := RenderFigure9(rows); !strings.Contains(out, "weak-1.5Mbps") {
		t.Error("render broken")
	}
}

func TestFigure10RecoveryReclaim(t *testing.T) {
	rows := Figure10([]int64{1})
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	cell := map[string]Figure10Row{}
	for _, r := range rows {
		key := r.Controller
		if r.Probing {
			key += "/probe"
		}
		cell[key] = r
	}
	// Probing must slash the adaptive controller's reclaim time.
	if cell["adaptive/probe"].ReclaimTime >= cell["adaptive"].ReclaimTime/2 {
		t.Errorf("probing reclaim %v not far below unprobed %v",
			cell["adaptive/probe"].ReclaimTime, cell["adaptive"].ReclaimTime)
	}
	if cell["adaptive/probe"].ReclaimTime > 5*time.Second {
		t.Errorf("probed reclaim %v too slow", cell["adaptive/probe"].ReclaimTime)
	}
	// Faster reclaim translates into better post-restore quality.
	if cell["adaptive/probe"].PostRestoreSSIM < cell["adaptive"].PostRestoreSSIM {
		t.Errorf("probing did not improve post-restore SSIM: %.4f vs %.4f",
			cell["adaptive/probe"].PostRestoreSSIM, cell["adaptive"].PostRestoreSSIM)
	}
	if out := RenderFigure10(rows); !strings.Contains(out, "reclaim") {
		t.Error("render broken")
	}
}
