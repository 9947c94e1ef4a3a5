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
	"rtcadapt/internal/trace"
	"rtcadapt/internal/units"
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

// figure9Receivers are the call's receivers in the order of the Figure 9
// rows: each one's label, its downlink's constant capacity and the offset
// from the cell seed that seeds the downlink.
var figure9Receivers = [...]struct {
	name       string
	rate       units.BitsPerSec
	seedOffset int64
}{
	{"strong-3.0Mbps", 3e6, 10},
	{"weak-1.5Mbps", 1.5e6, 20},
}

// sfuCall is the part of a Figure 9 call a worker keeps from cell to cell:
// the uplink, the SFU node, its receivers and their downlinks, and the
// buffer receiver ledgers are assembled in. The sender runs in the
// worker's shell. Each cell re-initialises every part in place, links
// first, so no packet of the previous call survives into the next.
type sfuCall struct {
	uplink    netem.Link
	node      sfu.Node
	downlinks [len(figure9Receivers)]netem.Link
	receivers [len(figure9Receivers)]sfu.Receiver
	records   []metrics.FrameRecord
}

// figure9Traces are the capacity traces of a Figure 9 call's links.
// Traces are read-only, so every cell's links share one set.
type figure9Traces struct {
	uplink    *trace.Trace
	downlinks [len(figure9Receivers)]*trace.Trace
}

// newFigure9Traces builds the 2.5 Mbps uplink's trace and each
// receiver's downlink trace.
func newFigure9Traces() figure9Traces {
	tr := figure9Traces{uplink: trace.Constant(2.5e6)}
	for ri, rcv := range figure9Receivers {
		tr.downlinks[ri] = trace.Constant(rcv.rate)
	}
	return tr
}

// figure9Sample is what one cell measures at one receiver.
type figure9Sample struct {
	p95             time.Duration
	frac, ssim, mos float64
}

// figure9Cell runs one SFU call in w's memory: the sender in the worker's
// shell and the rest in its SFU call parts, wired up in the order
// NewNode and NewReceiver calls on fresh links would wire them.
func (w *worker) figure9Cell(traces *figure9Traces, layerSel bool, seed int64) [len(figure9Receivers)]figure9Sample {
	w.resetSched()
	if w.call == nil {
		w.call = new(sfuCall)
	}
	sched, call := w.sched, w.call
	call.uplink.Init(sched, netem.Config{Trace: traces.uplink, Seed: seed})
	sender := w.shell.New(sched, session.Config{
		Duration:    30 * time.Second,
		Seed:        seed,
		Content:     video.TalkingHead,
		ForwardLink: &call.uplink,
		InitialRate: 1e6,
		Controller:  core.NewAdaptive(core.AdaptiveConfig{}),
		Encoder:     codec.Config{TemporalLayers: 2},
	})
	call.node.Init(sched, sender, 0)
	call.node.LayerSelection = layerSel
	call.uplink.SetReceiver(&call.node)
	for ri, rcv := range figure9Receivers {
		call.downlinks[ri].Init(sched, netem.Config{Trace: traces.downlinks[ri], Seed: seed + rcv.seedOffset})
		call.receivers[ri].Init(sched, &call.node, sfu.ReceiverConfig{Name: rcv.name, Downlink: &call.downlinks[ri]})
	}
	sched.RunUntil(32 * time.Second)
	// The sender's ledger is borrowed from the worker's shell and read
	// before its next run.
	ledger := sender.CaptureLedger()
	var out [len(figure9Receivers)]figure9Sample
	for ri := range call.receivers {
		call.records = call.receivers[ri].Records(call.records[:0], ledger)
		rep := w.summ.SummarizeAll(call.records, 33*time.Millisecond)
		out[ri] = figure9Sample{
			p95:  rep.P95NetDelay,
			frac: float64(rep.DeliveredFrames) / float64(rep.Frames),
			ssim: rep.MeanSSIM,
			mos:  metrics.MOS(rep),
		}
	}
	return out
}

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
	traces := newFigure9Traces()
	samples := mapCells(r, len(cells), func(i int) string {
		c := cells[i]
		return fmt.Sprintf("figure9 layer-selection=%t seed=%d", c.layerSel, c.seed)
	}, func(w *worker, i int) [len(figure9Receivers)]figure9Sample {
		return w.figure9Cell(&traces, cells[i].layerSel, cells[i].seed)
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
		for ri, rcv := range figure9Receivers {
			row := acc[ri]
			row.Receiver = rcv.name
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
