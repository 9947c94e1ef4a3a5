// Package sfu implements a selective forwarding unit for multi-party
// calls: the sender uploads one temporally layered stream; the SFU
// terminates congestion-control feedback on the uplink and forwards the
// stream to each receiver over that receiver's own downlink, dropping the
// enhancement layer (halving frame rate) for receivers whose downlink
// cannot carry the full stream — the standard architecture of
// production conferencing backends.
//
// A Node and its Receivers keep their storage across calls: Init rebuilds
// each in place, as NewNode and NewReceiver build them, so a harness that
// runs call after call (an experiment worker) reuses their rings, pools
// and ledgers. Packets are owned as follows. The sender's packets belong
// to the sender's session; the node reads each one as it arrives and
// keeps no pointer to it. Each receiver forwards a clone from a pool it
// owns, which the downlink holds in flight and the receiver takes back
// when the downlink delivers it or refuses it. A clone the downlink loses
// stays with the pool's slabs until the receiver's next Init.
package sfu

import (
	"slices"
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

// Node is the forwarding unit. Construct with NewNode (or Init a kept
// one), attach as the uplink's receiver, and add receivers. A Node must
// not be copied after first use.
type Node struct {
	sched  *simtime.Scheduler
	sender *session.Session

	// recorder accumulates uplink arrivals into sender feedback. Each
	// report's arrival buffer passes to the sender with SendFeedback and
	// comes back to recorder once the sender has consumed it (see
	// session.RecycleFeedbackTo), so the node reuses a few buffers for
	// the whole call.
	recorder fb.Recorder
	arrival  stats.RateMeter

	receivers []*Receiver

	// LayerSelection enables per-receiver temporal-layer filtering;
	// when false the SFU forwards everything to everyone.
	LayerSelection bool

	forwarded, filtered int
}

// NewNode creates an SFU on sched that feeds congestion feedback back to
// sender every interval (zero: 50 ms).
func NewNode(sched *simtime.Scheduler, sender *session.Session, interval time.Duration) *Node {
	n := new(Node)
	n.Init(sched, sender, interval)
	return n
}

// Init restarts the node as NewNode(sched, sender, interval) would build
// it, with no receivers and LayerSelection off, keeping the storage of its
// recorder, rate window and receiver list. The previous call's scheduler
// events must be gone (a Reset or a new scheduler).
func (n *Node) Init(sched *simtime.Scheduler, sender *session.Session, interval time.Duration) {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	n.recorder.Reset()
	n.arrival.Init(0.5)
	clear(n.receivers)
	*n = Node{
		sched:     sched,
		sender:    sender,
		recorder:  n.recorder,
		arrival:   n.arrival,
		receivers: n.receivers[:0],
	}
	sender.RecycleFeedbackTo(&n.recorder)
	sched.Tick(interval, n.feedbackTick)
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
// and a per-receiver bandwidth estimator at the SFU. A Receiver must not
// be copied after first use.
type Receiver struct {
	cfg   ReceiverConfig
	sched *simtime.Scheduler
	node  *Node

	reasm    rtp.Reassembler
	jbuf     *rtp.JitterBuffer
	recorder fb.Recorder
	history  fb.History
	est      cc.GCC

	// clones is the pool forwarded packets come from. Forwarding re-sends
	// the sender's packet on the downlink the way a packetizer re-sends a
	// retransmission: same RTP identity, the downlink's next transport
	// sequence number. A clone goes back with Release once delivered or
	// refused; Init rewinds the pool's slabs.
	clones rtp.Packetizer
	// frames has an entry for every frame the SFU forwarded here, holding
	// when it completed at the receiver (zero if it never did). Init
	// clears it, keeping its storage.
	frames   map[uint32]frameArrival
	layer    int // current allowed temporal layer
	pliArmed bool
	lastPLI  time.Duration
}

// frameArrival is the receiver-side fate of one forwarded frame.
type frameArrival struct {
	arrival, displayAt time.Duration
}

// NewReceiver attaches a receiver to the node, wiring the downlink's
// delivery and the receiver's feedback loop.
func NewReceiver(sched *simtime.Scheduler, node *Node, cfg ReceiverConfig) *Receiver {
	r := new(Receiver)
	r.Init(sched, node, cfg)
	return r
}

// Init restarts the receiver as NewReceiver(sched, node, cfg) would build
// it, keeping the storage of its reassembler, recorder, history,
// estimator windows, clone pool and frame ledger. Every clone it handed
// out before is reused, so the previous call's downlink must hold none:
// re-initialise it (or build a new one) first. The previous call's
// scheduler events must be gone (a Reset or a new scheduler).
func (r *Receiver) Init(sched *simtime.Scheduler, node *Node, cfg ReceiverConfig) {
	if cfg.Downlink == nil {
		panic("sfu: ReceiverConfig.Downlink is required")
	}
	if cfg.FeedbackInterval <= 0 {
		cfg.FeedbackInterval = 50 * time.Millisecond
	}
	if cfg.InitialRate <= 0 {
		cfg.InitialRate = 1e6
	}
	r.reasm.Reset()
	r.recorder.Reset()
	r.history.Reset()
	r.est.Init(cc.GCCConfig{InitialRate: cfg.InitialRate})
	r.clones.Init(0, 0, 0)
	if r.frames == nil {
		r.frames = make(map[uint32]frameArrival)
	}
	clear(r.frames)
	*r = Receiver{
		cfg:      cfg,
		sched:    sched,
		node:     node,
		reasm:    r.reasm,
		jbuf:     rtp.NewJitterBuffer(0, 0),
		recorder: r.recorder,
		history:  r.history,
		est:      r.est,
		clones:   r.clones,
		frames:   r.frames,
		layer:    1,
		lastPLI:  -time.Hour,
	}
	r.reasm.Horizon = 15
	cfg.Downlink.SetReceiver(netem.ReceiverFunc(r.deliver))
	sched.Tick(cfg.FeedbackInterval, r.feedbackTick)
	node.AddReceiver(r)
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

// forward sends a clone of one packet down this receiver's link,
// recording it in the SFU-side history so downlink feedback drives the
// estimator.
func (r *Receiver) forward(pkt *rtp.Packet, wireSize int) {
	if _, ok := r.frames[pkt.Ext.FrameID]; !ok {
		r.frames[pkt.Ext.FrameID] = frameArrival{}
	}
	clone := r.clones.Retransmit(pkt)
	r.history.Add(clone.Ext.TransportSeq, r.sched.Now(), wireSize)
	if !r.cfg.Downlink.Send(netem.Packet{Size: wireSize, Payload: clone}) {
		r.clones.Release(clone)
	}
}

// deliver consumes one packet at the participant. The receive path copies
// what it needs (the reassembler keeps no packet), so the clone goes back
// to the pool.
func (r *Receiver) deliver(np netem.Packet, at time.Duration) {
	pkt := np.Payload.(*rtp.Packet)
	r.recorder.OnPacket(pkt.Ext.TransportSeq, at, np.Size)
	complete, ok := r.reasm.Push(pkt, at)
	r.clones.Release(pkt)
	for range r.reasm.Lost() {
		r.requestPLI()
	}
	if !ok {
		return
	}
	displayAt := r.jbuf.PushUnordered(complete)
	r.frames[complete.FrameID] = frameArrival{arrival: complete.Arrival, displayAt: displayAt}
}

// Records assembles this receiver's per-frame ledger against the sender's
// capture ledger and appends it to dst, returning the extended slice: a
// slot the SFU filtered (layer selection) counts as Skipped (an
// intentional frame-rate reduction, the viewer sees a clean repeat), a
// forwarded-but-missing slot as Dropped, and decode-order dependencies
// are enforced as in the point-to-point session. SSIM is the sender's
// encoded quality for displayed frames and the chained repeat penalty for
// gaps. A caller that reuses dst across calls assembles without
// allocating once it has grown.
func (r *Receiver) Records(dst, sender []metrics.FrameRecord) []metrics.FrameRecord {
	start := len(dst)
	dst = slices.Grow(dst, len(sender))
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
		fa, sent := r.frames[uint32(srec.Index)]
		switch {
		case srec.Outcome == metrics.Skipped:
			out.Outcome = metrics.Skipped
			out.Bytes = 0
		case !sent:
			// Filtered by layer selection (or the sender's own packets
			// never reached the SFU): no bytes spent on this receiver.
			out.Outcome = metrics.Skipped
			out.Bytes = 0
		case fa.arrival > 0:
			out.Outcome = metrics.Delivered
			out.Arrival = fa.arrival
			out.DisplayAt = fa.displayAt
		default:
			out.Outcome = metrics.Dropped
		}
		dst = append(dst, out)
	}
	recs := dst[start:]
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
	return dst
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
