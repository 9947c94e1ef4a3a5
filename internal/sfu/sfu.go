// Package sfu implements a selective forwarding unit for multi-party
// calls: the sender uploads one temporally layered stream; the SFU
// terminates congestion-control feedback on the uplink and forwards the
// stream to each receiver over that receiver's own downlink, dropping the
// enhancement layer (halving frame rate) for receivers whose downlink
// cannot carry the full stream — the standard architecture of
// production conferencing backends.
package sfu

import (
	"time"

	"rtcadapt/internal/cc"
	"rtcadapt/internal/codec"
	"rtcadapt/internal/fb"
	"rtcadapt/internal/metrics"
	"rtcadapt/internal/netem"
	"rtcadapt/internal/rtp"
	"rtcadapt/internal/session"
	"rtcadapt/internal/simtime"
	"rtcadapt/internal/stats"
	"rtcadapt/internal/units"
)

// Node is the forwarding unit. Construct with NewNode, attach as the
// uplink's receiver, and add receivers.
type Node struct {
	sched  *simtime.Scheduler
	sender *session.Session

	recorder *fb.Recorder // uplink arrivals -> sender feedback
	arrival  *stats.RateMeter

	receivers []*Receiver

	// LayerSelection enables per-receiver temporal-layer filtering;
	// when false the SFU forwards everything to everyone.
	LayerSelection bool

	forwarded, filtered int
}

// NewNode creates an SFU on sched that feeds congestion feedback back to
// sender every interval (zero: 50 ms).
func NewNode(sched *simtime.Scheduler, sender *session.Session, interval time.Duration) *Node {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	n := &Node{
		sched:    sched,
		sender:   sender,
		recorder: fb.NewRecorder(),
		arrival:  stats.NewRateMeter(0.5),
	}
	sched.Tick(interval, n.feedbackTick)
	return n
}

// AddReceiver attaches a downstream participant.
func (n *Node) AddReceiver(r *Receiver) { n.receivers = append(n.receivers, r) }

// Forwarded and Filtered return forwarding counters.
func (n *Node) Forwarded() int { return n.forwarded }
func (n *Node) Filtered() int  { return n.filtered }

// Deliver implements netem.Receiver for the uplink: account the packet
// for sender feedback, then fan out to receivers subject to layer
// selection.
func (n *Node) Deliver(np netem.Packet, at time.Duration) {
	pkt, ok := np.Payload.(*rtp.Packet)
	if !ok {
		return
	}
	n.recorder.OnPacket(pkt.Ext.TransportSeq, at, np.Size)
	n.arrival.Add(at.Seconds(), float64(np.Size*8))

	for _, r := range n.receivers {
		if n.LayerSelection && r.allowedLayer() == 0 && pkt.Ext.TemporalLayer > 0 {
			n.filtered++
			continue
		}
		n.forwarded++
		r.forward(pkt, np.Size)
	}
}

// feedbackTick reports uplink arrivals to the sender, aggregating any
// receiver keyframe requests.
func (n *Node) feedbackTick() {
	for _, r := range n.receivers {
		if r.takePLI() {
			n.recorder.RequestPLI()
		}
	}
	n.sender.SendFeedback(n.recorder.Flush(n.sched.Now()))
}

// uplinkRate returns the sender's measured arrival rate at the SFU.
func (n *Node) uplinkRate() float64 {
	return n.arrival.Rate(n.sched.Now().Seconds())
}

// ReceiverConfig describes one downstream participant.
type ReceiverConfig struct {
	// Name labels the receiver in results.
	Name string
	// Downlink carries packets from the SFU to this receiver. Required.
	Downlink *netem.Link
	// FeedbackInterval is the receiver's report cadence to the SFU
	// (zero: 50 ms). Reports drive the SFU's per-receiver estimator.
	FeedbackInterval time.Duration
	// InitialRate seeds the downlink estimator (zero: 1 Mbps).
	InitialRate units.BitsPerSec
}

// Receiver is one downstream participant: a downlink, a receive pipeline,
// and a per-receiver bandwidth estimator at the SFU.
type Receiver struct {
	cfg   ReceiverConfig
	sched *simtime.Scheduler
	node  *Node

	reasm    *rtp.Reassembler
	jbuf     *rtp.JitterBuffer
	recorder *fb.Recorder
	history  *fb.History
	est      cc.Estimator

	nextTransport uint32
	ledger        map[int]*receiverFrame
	sentFrames    map[uint32]bool // frame ids the SFU forwarded here
	layer         int             // current allowed temporal layer
	pliArmed      bool
	lastPLI       time.Duration
}

type receiverFrame struct {
	rec metrics.FrameRecord
}

// NewReceiver attaches a receiver to the node, wiring the downlink's
// delivery and the receiver's feedback loop.
func NewReceiver(sched *simtime.Scheduler, node *Node, cfg ReceiverConfig) *Receiver {
	if cfg.Downlink == nil {
		panic("sfu: ReceiverConfig.Downlink is required")
	}
	if cfg.FeedbackInterval <= 0 {
		cfg.FeedbackInterval = 50 * time.Millisecond
	}
	if cfg.InitialRate <= 0 {
		cfg.InitialRate = 1e6
	}
	r := &Receiver{
		cfg:        cfg,
		sched:      sched,
		node:       node,
		reasm:      rtp.NewReassembler(),
		jbuf:       rtp.NewJitterBuffer(0, 0),
		recorder:   fb.NewRecorder(),
		history:    fb.NewHistory(),
		est:        cc.NewGCC(cc.GCCConfig{InitialRate: cfg.InitialRate}),
		ledger:     make(map[int]*receiverFrame),
		sentFrames: make(map[uint32]bool),
		layer:      1,
		lastPLI:    -time.Hour,
	}
	r.reasm.Horizon = 15
	cfg.Downlink.SetReceiver(netem.ReceiverFunc(r.deliver))
	sched.Tick(cfg.FeedbackInterval, r.feedbackTick)
	node.AddReceiver(r)
	return r
}

// allowedLayer returns the highest temporal layer this receiver's
// downlink sustains, with hysteresis: drop to base-layer-only when the
// downlink estimate falls below 75% of the uplink rate, return to the full
// stream only once it clearly exceeds it.
func (r *Receiver) allowedLayer() int {
	up := r.node.uplinkRate()
	if up <= 0 {
		return r.layer
	}
	est := float64(r.est.Snapshot(r.sched.Now()).Target)
	switch {
	case r.layer == 1 && est < 0.75*up:
		r.layer = 0
	case r.layer == 0 && est > 1.1*up:
		r.layer = 1
	}
	return r.layer
}

// forward sends one packet down this receiver's link, recording it in the
// SFU-side history so downlink feedback drives the estimator.
func (r *Receiver) forward(pkt *rtp.Packet, wireSize int) {
	r.sentFrames[pkt.Ext.FrameID] = true
	clone := *pkt
	clone.Ext.TransportSeq = r.nextTransport
	r.nextTransport++
	r.history.Add(clone.Ext.TransportSeq, r.sched.Now(), wireSize)
	r.cfg.Downlink.Send(netem.Packet{Size: wireSize, Payload: &clone})
}

// deliver consumes one packet at the participant.
func (r *Receiver) deliver(np netem.Packet, at time.Duration) {
	pkt := np.Payload.(*rtp.Packet)
	r.recorder.OnPacket(pkt.Ext.TransportSeq, at, np.Size)
	complete, ok := r.reasm.Push(pkt, at)
	for range r.reasm.Lost() {
		r.requestPLI()
	}
	if !ok {
		return
	}
	displayAt := r.jbuf.PushUnordered(complete)
	fi, have := r.ledger[int(complete.FrameID)]
	if !have {
		fi = &receiverFrame{}
		fi.rec.Index = int(complete.FrameID)
		fi.rec.CaptureTS = complete.CaptureTS
		fi.rec.Keyframe = complete.FrameType == 0
		fi.rec.TemporalLayer = int(complete.TemporalLayer)
		r.ledger[int(complete.FrameID)] = fi
	}
	fi.rec.Outcome = metrics.Delivered
	fi.rec.Arrival = complete.Arrival
	fi.rec.DisplayAt = displayAt
	fi.rec.Bytes = complete.Bytes
}

// Records assembles this receiver's per-frame ledger against the sender's
// capture ledger: a slot the SFU filtered (layer selection) counts as
// Skipped (an intentional frame-rate reduction, the viewer sees a clean
// repeat), a forwarded-but-missing slot as Dropped, and decode-order
// dependencies are enforced as in the point-to-point session. SSIM is the
// sender's encoded quality for displayed frames and the chained repeat
// penalty for gaps.
func (r *Receiver) Records(sender []metrics.FrameRecord) []metrics.FrameRecord {
	recs := make([]metrics.FrameRecord, 0, len(sender))
	for _, srec := range sender {
		out := metrics.FrameRecord{
			Index:         srec.Index,
			CaptureTS:     srec.CaptureTS,
			Keyframe:      srec.Keyframe,
			TemporalLayer: srec.TemporalLayer,
			Bytes:         srec.Bytes,
			QP:            srec.QP,
			SSIM:          srec.SSIM,
		}
		switch {
		case srec.Outcome == metrics.Skipped:
			out.Outcome = metrics.Skipped
			out.Bytes = 0
		case !r.sentFrames[uint32(srec.Index)]:
			// Filtered by layer selection (or the sender's own packets
			// never reached the SFU): no bytes spent on this receiver.
			out.Outcome = metrics.Skipped
			out.Bytes = 0
		default:
			if fi, ok := r.ledger[srec.Index]; ok && fi.rec.Arrival > 0 {
				out.Outcome = metrics.Delivered
				out.Arrival = fi.rec.Arrival
				out.DisplayAt = fi.rec.DisplayAt
			} else {
				out.Outcome = metrics.Dropped
			}
		}
		recs = append(recs, out)
	}
	metrics.EnforceDecodeOrder(recs, r.jbuf.LatenessBudget)
	// Chain display quality through gaps, as the session does.
	last := 1.0
	for i := range recs {
		rec := &recs[i]
		switch rec.Outcome {
		case metrics.Delivered:
			last = rec.SSIM
		default:
			rec.SSIM = codec.SkipSSIM(last, 0.2)
			last = rec.SSIM
		}
	}
	return recs
}

// Name returns the receiver's label.
func (r *Receiver) Name() string { return r.cfg.Name }

func (r *Receiver) requestPLI() {
	if r.sched.Now()-r.lastPLI < 500*time.Millisecond {
		return
	}
	r.lastPLI = r.sched.Now()
	r.pliArmed = true
}

// takePLI drains the armed keyframe request.
func (r *Receiver) takePLI() bool {
	v := r.pliArmed
	r.pliArmed = false
	return v
}

// feedbackTick runs the downlink feedback loop at the SFU: the receiver's
// report is consumed locally (the SFU is the "sender" on the downlink).
func (r *Receiver) feedbackTick() {
	rep := r.recorder.Flush(r.sched.Now())
	// The report travels back over the (uncongested) control path; a
	// propagation delay would only smooth the estimator further, so the
	// SFU consumes it directly.
	results := r.history.OnReport(rep)
	r.est.OnPacketResults(r.sched.Now(), results)
	// The report never left this receiver, so its arrival buffer can go
	// straight back to the recorder.
	r.recorder.Recycle(rep)
}
