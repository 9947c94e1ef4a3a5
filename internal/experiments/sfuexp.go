package experiments

import (
	"fmt"
	"time"

	"rtcadapt/internal/codec"
	"rtcadapt/internal/core"
	"rtcadapt/internal/metrics"
	"rtcadapt/internal/netem"
	"rtcadapt/internal/session"
	"rtcadapt/internal/sfu"
	"rtcadapt/internal/simtime"
	"rtcadapt/internal/trace"
	"rtcadapt/internal/video"
)

// ---------------------------------------------------------------------------
// Figure 9 — SFU multi-party extension.
//
// One temporally layered sender, an SFU, and two receivers with unequal
// downlinks. The question: can the SFU serve both a strong and a weak
// receiver from one stream by dropping the enhancement layer for the weak
// one — without transcoding and without dragging the strong receiver down
// to the weak one's rate?

// Figure9Row is one (receiver, layer-selection mode) cell.
type Figure9Row struct {
	Receiver       string
	LayerSelection bool
	P95            time.Duration
	DeliveredFrac  float64
	MeanSSIM       float64
	MOS            float64
}

// Figure9 runs the SFU comparison on the default parallel runner.
func Figure9(seeds []int64) []Figure9Row { return (&Runner{}).Figure9(seeds) }

// figure9Receivers is the fixed receiver order of the Figure 9 rows.
var figure9Receivers = [...]string{"strong-3.0Mbps", "weak-1.5Mbps"}

// Figure9 runs the two-receiver SFU call with layer selection off and on.
// Cells are (layer-selection mode, seed); one cell is one full SFU call
// reporting both receivers.
func (r *Runner) Figure9(seeds []int64) []Figure9Row {
	if len(seeds) == 0 {
		seeds = DefaultSeeds()
	}
	modes := []bool{false, true}
	type cell struct {
		layerSel bool
		seed     int64
	}
	cells := make([]cell, 0, len(modes)*len(seeds))
	for _, layerSel := range modes {
		for _, seed := range seeds {
			cells = append(cells, cell{layerSel: layerSel, seed: seed})
		}
	}
	type recvSample struct {
		p95             time.Duration
		frac, ssim, mos float64
	}
	samples := mapCells(r, len(cells), func(i int) string {
		c := cells[i]
		return fmt.Sprintf("figure9 layer-selection=%t seed=%d", c.layerSel, c.seed)
	}, func(i int) [len(figure9Receivers)]recvSample {
		c := cells[i]
		sched := simtime.NewScheduler()
		uplink := netem.NewLink(sched, netem.Config{Trace: trace.Constant(2.5e6), Seed: c.seed})
		sender := session.New(sched, session.Config{
			Duration:    30 * time.Second,
			Seed:        c.seed,
			Content:     video.TalkingHead,
			ForwardLink: uplink,
			InitialRate: 1e6,
			Controller:  core.NewAdaptive(core.AdaptiveConfig{}),
			Encoder:     codec.Config{TemporalLayers: 2},
		})
		node := sfu.NewNode(sched, sender, 0)
		node.LayerSelection = c.layerSel
		uplink.SetReceiver(node)
		receivers := []*sfu.Receiver{
			sfu.NewReceiver(sched, node, sfu.ReceiverConfig{
				Name:     figure9Receivers[0],
				Downlink: netem.NewLink(sched, netem.Config{Trace: trace.Constant(3e6), Seed: c.seed + 10}),
			}),
			sfu.NewReceiver(sched, node, sfu.ReceiverConfig{
				Name:     figure9Receivers[1],
				Downlink: netem.NewLink(sched, netem.Config{Trace: trace.Constant(1.5e6), Seed: c.seed + 20}),
			}),
		}
		sched.RunUntil(32 * time.Second)
		ledger := sender.CaptureLedger()
		var out [len(figure9Receivers)]recvSample
		for ri, recv := range receivers {
			rep := metrics.SummarizeAll(recv.Records(ledger), 33*time.Millisecond)
			out[ri] = recvSample{
				p95:  rep.P95NetDelay,
				frac: float64(rep.DeliveredFrames) / float64(rep.Frames),
				ssim: rep.MeanSSIM,
				mos:  metrics.MOS(rep),
			}
		}
		return out
	})

	var rows []Figure9Row
	i := 0
	for _, layerSel := range modes {
		acc := [len(figure9Receivers)]Figure9Row{}
		for range seeds {
			for ri := range figure9Receivers {
				s := samples[i][ri]
				acc[ri].P95 += s.p95
				acc[ri].DeliveredFrac += s.frac
				acc[ri].MeanSSIM += s.ssim
				acc[ri].MOS += s.mos
			}
			i++
		}
		n := time.Duration(len(seeds))
		for ri, name := range figure9Receivers {
			row := acc[ri]
			row.Receiver = name
			row.LayerSelection = layerSel
			row.P95 /= n
			row.DeliveredFrac /= float64(len(seeds))
			row.MeanSSIM /= float64(len(seeds))
			row.MOS /= float64(len(seeds))
			rows = append(rows, row)
		}
	}
	return rows
}

// RenderFigure9 renders the SFU comparison.
func RenderFigure9(rows []Figure9Row) string {
	tb := metrics.NewTable("receiver", "layer selection", "P95 (ms)", "delivered", "mean SSIM", "MOS")
	for _, r := range rows {
		mode := "off"
		if r.LayerSelection {
			mode = "on"
		}
		tb.AddRow(r.Receiver, mode, metrics.Ms(r.P95),
			fmt.Sprintf("%.1f%%", r.DeliveredFrac*100),
			fmt.Sprintf("%.4f", r.MeanSSIM), fmt.Sprintf("%.2f", r.MOS))
	}
	return "Figure 9 (extension): SFU with temporal-layer selection (2.5 Mbps uplink)\n" + tb.String()
}
