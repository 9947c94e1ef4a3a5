package sfu

import (
	"slices"
	"testing"
	"time"

	"rtcadapt/internal/codec"
	"rtcadapt/internal/core"
	"rtcadapt/internal/metrics"
	"rtcadapt/internal/netem"
	"rtcadapt/internal/rtp"
	"rtcadapt/internal/session"
	"rtcadapt/internal/simtime"
	"rtcadapt/internal/trace"
	"rtcadapt/internal/units"
	"rtcadapt/internal/video"
)

// buildCall wires a one-sender, two-receiver SFU call: a strong receiver
// (3 Mbps downlink) and a weak one (weakRate).
func buildCall(t *testing.T, layerSelection bool, weakRate units.BitsPerSec, dur time.Duration) (
	sender *session.Session, node *Node, strong, weak *Receiver, run func()) {
	t.Helper()
	sched := simtime.NewScheduler()
	uplink := netem.NewLink(sched, netem.Config{Trace: trace.Constant(2.5e6), Seed: 1})
	sender = session.New(sched, session.Config{
		Duration:    dur,
		Seed:        1,
		Content:     video.TalkingHead,
		ForwardLink: uplink,
		InitialRate: 1e6,
		Controller:  core.NewResetOnly(),
		Encoder:     encoderWithLayers(),
	})
	node = NewNode(sched, sender, 0)
	node.LayerSelection = layerSelection
	uplink.SetReceiver(node)

	strongLink := netem.NewLink(sched, netem.Config{Trace: trace.Constant(3e6), Seed: 2})
	weakLink := netem.NewLink(sched, netem.Config{Trace: trace.Constant(weakRate), Seed: 3})
	strong = NewReceiver(sched, node, ReceiverConfig{Name: "strong", Downlink: strongLink})
	weak = NewReceiver(sched, node, ReceiverConfig{Name: "weak", Downlink: weakLink})
	run = func() { sched.RunUntil(dur + 2*time.Second) }
	return
}

func encoderWithLayers() codec.Config {
	return codec.Config{TemporalLayers: 2}
}

func TestSFUForwardsToAllReceivers(t *testing.T) {
	sender, node, strong, weak, run := buildCall(t, false, 3e6, 15*time.Second)
	run()
	ledger := sender.CaptureLedger()
	if len(ledger) < 440 {
		t.Fatalf("sender captured %d frames", len(ledger))
	}
	if node.Forwarded() == 0 {
		t.Fatal("SFU forwarded nothing")
	}
	for _, r := range []*Receiver{strong, weak} {
		recs := r.Records(nil, ledger)
		rep := metrics.SummarizeAll(recs, 33*time.Millisecond)
		frac := float64(rep.DeliveredFrames) / float64(rep.Frames)
		if frac < 0.95 {
			t.Errorf("%s delivered %.3f with ample downlinks", r.Name(), frac)
		}
	}
}

func TestSFULayerSelectionProtectsWeakReceiver(t *testing.T) {
	const weakRate = 1.5e6 // fits TL0-only (~60% of sender rate), not the full stream
	analyze := func(layerSel bool) (weakP95 time.Duration, weakDelivered, filtered int, frames int) {
		sender, node, _, weak, run := buildCall(t, layerSel, weakRate, 20*time.Second)
		run()
		recs := weak.Records(nil, sender.CaptureLedger())
		rep := metrics.SummarizeAll(recs, 33*time.Millisecond)
		return rep.P95NetDelay, rep.DeliveredFrames, node.Filtered(), rep.Frames
	}

	offP95, offDel, offFiltered, frames := analyze(false)
	onP95, onDel, onFiltered, _ := analyze(true)

	if offFiltered != 0 {
		t.Fatalf("filtering happened with LayerSelection off: %d", offFiltered)
	}
	if onFiltered == 0 {
		t.Fatal("LayerSelection on but nothing filtered for the weak downlink")
	}
	// Filtering halves the weak receiver's frame rate (delivered ~ half
	// the slots) but must slash its latency: without it the weak
	// downlink queues unboundedly.
	if onP95 >= offP95/2 {
		t.Errorf("layer selection P95 %v not far below unfiltered %v", onP95, offP95)
	}
	if onDel < frames/3 {
		t.Errorf("weak receiver delivered only %d/%d slots with filtering", onDel, frames)
	}
	_ = offDel
	t.Logf("weak receiver: off P95=%v del=%d | on P95=%v del=%d filtered=%d",
		offP95, offDel, onP95, onDel, onFiltered)
}

func TestSFUSenderFeedbackLoopWorks(t *testing.T) {
	// The sender's estimator is driven by SFU feedback: its rate must
	// ramp beyond the 1 Mbps seed on the 4 Mbps uplink.
	sender, _, _, _, run := buildCall(t, false, 3e6, 20*time.Second)
	run()
	ledger := sender.CaptureLedger()
	var lateBits float64
	for _, rec := range ledger {
		if rec.CaptureTS >= 15*time.Second {
			lateBits += float64(rec.Bytes) * 8
		}
	}
	lateRate := lateBits / 5
	if lateRate < 1.2e6 {
		t.Errorf("sender rate %.2f Mbps after 15 s; SFU feedback loop dead", lateRate/1e6)
	}
}

func TestSFUPLIPropagation(t *testing.T) {
	// Loss on a downlink must produce keyframes at the sender via
	// SFU-aggregated PLI.
	sched := simtime.NewScheduler()
	uplink := netem.NewLink(sched, netem.Config{Trace: trace.Constant(4e6), Seed: 1})
	sender := session.New(sched, session.Config{
		Duration:    15 * time.Second,
		Seed:        1,
		Content:     video.TalkingHead,
		ForwardLink: uplink,
		InitialRate: 1e6,
		Controller:  core.NewResetOnly(),
	})
	node := NewNode(sched, sender, 0)
	uplink.SetReceiver(node)
	lossy := netem.NewLink(sched, netem.Config{Trace: trace.Constant(3e6), LossProb: 0.03, Seed: 9})
	rcv := NewReceiver(sched, node, ReceiverConfig{Name: "lossy", Downlink: lossy})
	sched.RunUntil(17 * time.Second)

	ledger := sender.CaptureLedger()
	keyframes := 0
	for _, rec := range ledger {
		if rec.Keyframe {
			keyframes++
		}
	}
	if keyframes < 2 {
		t.Errorf("keyframes = %d; PLI did not propagate through the SFU", keyframes)
	}
	recs := rcv.Records(nil, ledger)
	rep := metrics.SummarizeAll(recs, 33*time.Millisecond)
	if rep.DeliveredFrames == 0 {
		t.Error("lossy receiver delivered nothing")
	}
}

// poison overwrites a packet with sentinel values no live packet carries.
func poison(p *rtp.Packet) {
	*p = rtp.Packet{
		Header: rtp.Header{Version: 3, PayloadType: 0x7f, SequenceNumber: 0xdead, Timestamp: 0xdeadbeef, SSRC: 0xdeadbeef},
		Ext: rtp.Extension{
			TransportSeq: 0xdeadbeef, FrameID: 0xdeadbeef, FragIndex: 0xdead, FragCount: 0xdead,
			FrameType: 0xee, TemporalLayer: 0xee, CaptureTS: -time.Hour,
		},
		PayloadLen: -1,
	}
}

// TestDeliveredClonesPoisoned is the clone pool's ownership proof: once a
// receiver has consumed a forwarded clone, it has handed it back to its
// pool, and nothing may read it again. Overwriting every delivered clone
// with sentinel values the moment delivery returns must leave both
// receivers' ledgers unchanged. The weak downlink cannot carry the full
// stream, so its queue also refuses clones, which go straight back.
func TestDeliveredClonesPoisoned(t *testing.T) {
	records := func(poisoned bool) [2][]metrics.FrameRecord {
		sender, _, strong, weak, run := buildCall(t, false, 1.5e6, 10*time.Second)
		for _, r := range []*Receiver{strong, weak} {
			r.cfg.Downlink.SetReceiver(netem.ReceiverFunc(func(np netem.Packet, at time.Duration) {
				r.deliver(np, at)
				if poisoned {
					poison(np.Payload.(*rtp.Packet))
				}
			}))
		}
		run()
		if weak.cfg.Downlink.Stats().DroppedQueue == 0 {
			t.Fatal("the weak downlink refused nothing; the Send path was not exercised")
		}
		ledger := sender.CaptureLedger()
		return [2][]metrics.FrameRecord{strong.Records(nil, ledger), weak.Records(nil, ledger)}
	}
	clean, dirty := records(false), records(true)
	for ri := range clean {
		if !slices.Equal(clean[ri], dirty[ri]) {
			t.Errorf("receiver %d: poisoning delivered clones changed its ledger", ri)
		}
	}
}
