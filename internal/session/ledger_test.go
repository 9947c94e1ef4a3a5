package session

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"rtcadapt/internal/core"
	"rtcadapt/internal/fb"
	"rtcadapt/internal/fec"
	"rtcadapt/internal/metrics"
	"rtcadapt/internal/netem"
	"rtcadapt/internal/rtp"
	"rtcadapt/internal/simtime"
	"rtcadapt/internal/trace"
	"rtcadapt/internal/video"
)

// sparseSource renumbers a synthetic source's frames 5, 8, 11, …: indices
// that only increase, which is all video.FrameSource promises.
type sparseSource struct{ *video.Source }

func (s sparseSource) Next() video.Frame {
	f := s.Source.Next()
	f.Index = 5 + 3*f.Index
	return f
}

// TestSparseFrameIndicesResolve runs a session whose source skips
// indices. The ledger is indexed by capture order, so a receiver frame id
// must still find its record: on an uncongested link nearly every frame
// is delivered, and an unresolved record would show up as a drop.
func TestSparseFrameIndicesResolve(t *testing.T) {
	src := sparseSource{video.NewSource(video.SourceConfig{Class: video.TalkingHead, FPS: 30, Seed: 2})}
	res := Run(Config{
		Duration:    10 * time.Second,
		Seed:        2,
		Trace:       trace.Constant(3e6),
		InitialRate: 1e6,
		VideoSource: src,
		Controller:  core.NewAdaptive(core.AdaptiveConfig{}),
	})
	for i, r := range res.Records {
		if int(r.Index) != 5+3*i {
			t.Fatalf("record %d has index %d, want %d", i, r.Index, 5+3*i)
		}
	}
	rep := res.Report
	if frac := float64(rep.DeliveredFrames) / float64(rep.Frames); frac < 0.95 {
		t.Fatalf("delivered %.3f of frames with sparse indices: %+v", frac, rep)
	}
}

// scaledSource shifts a synthetic source's indices by base and multiplies
// its complexity by gain, to drive the ledger's int32 fields past range.
type scaledSource struct {
	*video.Source
	base int
	gain float64
}

func (s scaledSource) Next() video.Frame {
	f := s.Source.Next()
	f.Index += s.base
	f.Spatial *= s.gain
	f.Temporal *= s.gain
	return f
}

// runPanic runs a one-second session on src and returns what it panicked
// with ("" if it did not). The 1 GiB MTU cuts even a 37 GB frame into a
// few dozen packets, so a missing guard fails the test instead of
// packetizing gigabytes.
func runPanic(src video.FrameSource) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	cfg := steadyConfig(core.NewAdaptive(core.AdaptiveConfig{}))
	cfg.Duration, cfg.VideoSource, cfg.MTU = time.Second, src, 1<<30
	Run(cfg)
	return ""
}

// TestLedgerIndexOverflowPanics checks that a capture index past int32
// panics at the ledger write, naming the field, instead of wrapping: the
// first two frames (indices up to MaxInt32) record, the third does not.
func TestLedgerIndexOverflowPanics(t *testing.T) {
	src := scaledSource{video.NewSource(video.SourceConfig{Class: video.TalkingHead, FPS: 30, Seed: 2}), math.MaxInt32 - 1, 1}
	msg := runPanic(src)
	if want := fmt.Sprintf("FrameRecord.Index %d overflows int32", int64(math.MaxInt32)+1); !strings.Contains(msg, want) {
		t.Fatalf("panic %q, want it to contain %q", msg, want)
	}
}

// TestLedgerBytesOverflowPanics checks that an encoded size past int32 —
// a first frame of extreme complexity, about 37 GB at the codec's highest
// QP — panics at the ledger write, naming the field, before any packet is
// cut from it.
func TestLedgerBytesOverflowPanics(t *testing.T) {
	src := scaledSource{video.NewSource(video.SourceConfig{Class: video.TalkingHead, FPS: 30, Seed: 2}), 0, 1e7}
	if msg := runPanic(src); !strings.Contains(msg, "FrameRecord.Bytes") || !strings.Contains(msg, "overflows int32") {
		t.Fatalf("panic %q, want a FrameRecord.Bytes overflow", msg)
	}
}

// TestValidateRejectsLedgerOverflow checks the up-front bound: a Duration
// that captures MaxInt32 frames is accepted, and one that captures a frame
// more or the longest Duration is rejected, at the default 30 fps and at a
// caller source's rate.
func TestValidateRejectsLedgerOverflow(t *testing.T) {
	for _, c := range []struct {
		name string
		src  video.FrameSource
	}{
		{"default fps", nil},
		{"caller source", video.NewSource(video.SourceConfig{Class: video.TalkingHead, FPS: 24, Seed: 2})},
	} {
		cfg := steadyConfig(core.NewNativeRC())
		cfg.VideoSource = c.src
		interval := cfg.frameInterval()
		cfg.Duration = math.MaxInt32 * interval
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %d frames rejected: %v", c.name, math.MaxInt32, err)
		}
		for _, d := range []time.Duration{cfg.Duration + 1, math.MaxInt64} {
			cfg.Duration = d
			if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "Duration") {
				t.Errorf("%s: Duration %v: error %v, want a Duration rejection", c.name, d, err)
			}
		}
	}
}

// TestFrameSlot checks the ledger lookup directly: the dense fast path,
// the binary-search fallback for sparse indices, and misses on both sides.
func TestFrameSlot(t *testing.T) {
	s := &Session{}
	if _, ok := s.frameSlot(0); ok {
		t.Fatal("empty ledger found a frame")
	}
	for _, idx := range []int{2, 3, 4, 10, 11, 40} {
		s.records = append(s.records, metrics.FrameRecord{Index: int32(idx)})
	}
	for want, idx := range []int{2, 3, 4, 10, 11, 40} {
		if got, ok := s.frameSlot(idx); !ok || got != want {
			t.Errorf("frameSlot(%d) = %d,%v, want %d,true", idx, got, ok, want)
		}
	}
	for _, idx := range []int{0, 1, 5, 9, 12, 39, 41, 1 << 40} {
		if _, ok := s.frameSlot(idx); ok {
			t.Errorf("frameSlot(%d) found a frame that was never captured", idx)
		}
	}
}

// TestResultBuffersExactlySized pins the sizing rule: the ledger and the
// timeline are allocated once at the size the run fills, so they never
// regrow and never hold more capacity than append growth would have
// given — Results are retained by callers such as the shared-link
// experiments.
func TestResultBuffersExactlySized(t *testing.T) {
	for _, c := range []struct {
		dur time.Duration
		fps int
	}{{30 * time.Second, 30}, {10 * time.Second, 24}, {2*time.Second + 7*time.Millisecond, 30}, {time.Second, 25}} {
		cfg := steadyConfig(core.NewAdaptive(core.AdaptiveConfig{}))
		cfg.Duration, cfg.FPS, cfg.StartAt = c.dur, c.fps, 250*time.Millisecond
		res := Run(cfg)
		if len(res.Records) == 0 || len(res.Records) != cap(res.Records) {
			t.Errorf("%v at %d fps: ledger len %d cap %d", c.dur, c.fps, len(res.Records), cap(res.Records))
		}
		if len(res.Timeline) == 0 || len(res.Timeline) != cap(res.Timeline) {
			t.Errorf("%v at %d fps: timeline len %d cap %d", c.dur, c.fps, len(res.Timeline), cap(res.Timeline))
		}
	}
	// Flows on a shared link sample until the last flow has drained, past
	// their own end.
	flows := []Config{dropConfig(core.NewAdaptive(core.AdaptiveConfig{}), 1), dropConfig(core.NewNativeRC(), 2)}
	flows[0].Duration = 5 * time.Second
	flows[1].Duration, flows[1].StartAt = 8*time.Second, 300*time.Millisecond
	for i, res := range RunShared(SharedConfig{Trace: trace.Constant(4e6)}, flows) {
		if len(res.Records) != cap(res.Records) || len(res.Timeline) != cap(res.Timeline) {
			t.Errorf("shared flow %d: ledger len %d cap %d, timeline len %d cap %d",
				i, len(res.Records), cap(res.Records), len(res.Timeline), cap(res.Timeline))
		}
	}
}

// TestFeedbackReportsRecycle checks that reverse-link reports come back to
// the session's free list, and that a middlebox sending feedback through
// SendFeedback (as the SFU does) draws from the same list instead of
// growing it.
func TestFeedbackReportsRecycle(t *testing.T) {
	sched := simtime.NewScheduler()
	sink := netem.NewLink(sched, netem.Config{Trace: trace.Constant(2e6)})
	cfg := steadyConfig(core.NewAdaptive(core.AdaptiveConfig{}))
	cfg.Duration = 5 * time.Second
	cfg.ForwardLink = sink
	s := New(sched, cfg)
	middlebox := fb.NewRecorder()
	sched.Tick(50*time.Millisecond, func() { s.SendFeedback(middlebox.Flush(sched.Now())) })
	// Stop between deliveries: both senders tick on multiples of 50 ms and
	// the reverse path is 25 ms long, so every report is back on the list.
	sched.RunUntil(7*time.Second + 30*time.Millisecond)
	if n := len(s.reports); n == 0 || n > 4 || int(s.freeReports) != n {
		t.Fatalf("%d of %d reports on the free list after 280 reports, want all of 1..4", s.freeReports, n)
	}
}

// TestShellReclaimsReportsInFlight checks that a recycled session takes
// back the reports its last run left on the reverse link, with their
// arrival buffers, instead of minting new ones.
func TestShellReclaimsReportsInFlight(t *testing.T) {
	cfg := steadyConfig(core.NewAdaptive(core.AdaptiveConfig{}))
	cfg.Duration = 2 * time.Second
	// Reports leave every 50 ms and take 25 ms to arrive: 10 ms past a
	// send one is in flight, 30 ms past it none is.
	inFlightAt, deliveredAt := cfg.Duration+10*time.Millisecond, cfg.Duration+30*time.Millisecond

	var sh Shell
	sched := simtime.NewScheduler()
	s := sh.New(sched, cfg)
	sched.RunUntil(inFlightAt)
	minted, inFlight := len(s.reports), len(s.reports)-int(s.freeReports)
	if inFlight == 0 {
		t.Fatalf("no report in flight at %v: the test does not reach the reclaim", inFlightAt)
	}
	for run := 0; run < 3; run++ {
		sched.Reset()
		s = sh.New(sched, cfg)
		if int(s.freeReports) != minted || len(s.reports) != minted {
			t.Fatalf("run %d starts with %d of %d reports free, want all %d", run, s.freeReports, len(s.reports), minted)
		}
		sched.RunUntil(inFlightAt)
		if len(s.reports) != minted {
			t.Fatalf("run %d minted %d reports, the first run %d", run, len(s.reports), minted)
		}
	}

	// A run stopped with reports in flight leaves its recorder as many
	// arrival buffers as one stopped after they arrived.
	buffers := func(end time.Duration) int {
		var sh Shell
		sched := simtime.NewScheduler()
		sh.New(sched, cfg)
		sched.RunUntil(end)
		sched.Reset()
		return freeArrivalBuffers(sh.New(sched, cfg).recorder)
	}
	if got, want := buffers(inFlightAt), buffers(deliveredAt); got != want {
		t.Fatalf("stopped with %d reports in flight, the recorder keeps %d arrival buffers; with none in flight, %d", inFlight, got, want)
	}
}

// freeArrivalBuffers counts the arrival buffers a recorder holds, through
// its public behaviour: each empty Flush hands out the pending buffer and
// takes the next one off the free list, until a report comes back with no
// buffer at all.
func freeArrivalBuffers(rec *fb.Recorder) int {
	n := 0
	for cap(rec.Flush(0).Arrivals) > 0 {
		n++
	}
	return n
}

// TestMiddleboxFeedbackBuffersBounded runs the SFU's shape: the sender's
// media goes to a middlebox whose own recorder reports back through
// SendFeedback, so every consumed report recycles the middlebox's arrival
// buffer into the sender's recorder, which flushes only its own empty
// reports. The sender must hold the same number of buffers after 10 s as
// after 60 s instead of gaining one per report.
func TestMiddleboxFeedbackBuffersBounded(t *testing.T) {
	buffers := func(d time.Duration) int {
		sched := simtime.NewScheduler()
		middlebox := fb.NewRecorder()
		uplink := netem.NewLink(sched, netem.Config{Trace: trace.Constant(3e6)})
		uplink.SetReceiver(netem.ReceiverFunc(func(np netem.Packet, at time.Duration) {
			if pkt, ok := np.Payload.(*rtp.Packet); ok {
				middlebox.OnPacket(pkt.Ext.TransportSeq, at, np.Size)
			}
		}))
		cfg := steadyConfig(core.NewAdaptive(core.AdaptiveConfig{}))
		cfg.Duration, cfg.ForwardLink = d, uplink
		s := New(sched, cfg)
		sched.Tick(50*time.Millisecond, func() { s.SendFeedback(middlebox.Flush(sched.Now())) })
		sched.RunUntil(d + 30*time.Millisecond)
		return freeArrivalBuffers(s.recorder)
	}
	short, long := buffers(10*time.Second), buffers(60*time.Second)
	if short != long || long == 0 {
		t.Fatalf("sender holds %d arrival buffers after 10 s and %d after 60 s", short, long)
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

// poisonRepair overwrites a repair, every Protected slot up to its
// capacity included, with sentinel values no live repair carries.
func poisonRepair(rep *fec.Repair) {
	for i := range rep.Protected[:cap(rep.Protected)] {
		poison(&rep.Protected[:cap(rep.Protected)][i])
	}
	rep.RepairID, rep.SSRC, rep.TransportSeq, rep.WireBytes = 0xdeadbeef, 0xdeadbeef, 0xdeadbeef, -1
}

// runPoisoned runs cfg on a forward link it builds itself, so it can
// watch every delivery. With poisoned set, every packet and FEC repair
// the session recycled is overwritten with sentinel values the moment
// Deliver returns.
func runPoisoned(cfg Config, poisoned bool) Result {
	sched := simtime.NewScheduler()
	link := netem.NewLink(sched, netem.Config{
		Trace:     cfg.Trace,
		PropDelay: cfg.PropDelay,
		JitterAmp: cfg.JitterAmp,
		LossProb:  cfg.LossProb,
		Seed:      cfg.Seed + 2,
	})
	cfg.ForwardLink = link
	s := New(sched, cfg)
	link.SetReceiver(netem.ReceiverFunc(func(np netem.Packet, at time.Duration) {
		s.Deliver(np, at)
		if !poisoned {
			return
		}
		switch pkt := np.Payload.(type) {
		case *rtp.Packet:
			if s.soleHolder() {
				poison(pkt)
			}
		case *fec.Repair:
			poisonRepair(pkt)
		}
	}))
	end := cfg.StartAt + s.cfg.Duration + 2*time.Second
	sched.RunUntil(end)
	return s.Result()
}

// TestRecycledPacketsPoisoned is the ownership rule's proof: once Deliver
// has returned a packet to the packetizer or a repair to the FEC encoder,
// nothing — receiver, sender, link or FEC decoder — may read it again.
// Overwriting every recycled packet and repair with sentinels must leave
// the session's results unchanged, with and without FEC, audio, probing,
// loss, jitter and NACK (which keeps packets for retransmission, so the
// session must not recycle them, but never keeps repairs).
func TestRecycledPacketsPoisoned(t *testing.T) {
	for _, c := range []struct {
		name string
		mk   func() Config
	}{
		{"drop", func() Config { return dropConfig(core.NewAdaptive(core.AdaptiveConfig{}), 4) }},
		{"fec-audio-probing-loss", func() Config {
			cfg := dropConfig(core.NewAdaptive(core.AdaptiveConfig{}), 5)
			cfg.Duration = 15 * time.Second
			cfg.FECGroupSize, cfg.Audio, cfg.Probing = 4, true, true
			cfg.LossProb, cfg.JitterAmp = 0.01, 3*time.Millisecond
			return cfg
		}},
		{"fec-nack-loss", func() Config {
			cfg := dropConfig(core.NewAdaptive(core.AdaptiveConfig{}), 7)
			cfg.Duration = 15 * time.Second
			cfg.FECGroupSize, cfg.NACK, cfg.LossProb = 3, true, 0.03
			return cfg
		}},
		{"nack-loss", func() Config {
			cfg := dropConfig(core.NewAdaptive(core.AdaptiveConfig{}), 6)
			cfg.Duration = 15 * time.Second
			cfg.NACK, cfg.LossProb = true, 0.02
			return cfg
		}},
	} {
		clean, dirty := runPoisoned(c.mk(), false), runPoisoned(c.mk(), true)
		if c.mk().FECGroupSize > 0 && clean.FECRecovered == 0 {
			t.Errorf("%s: FEC recovered nothing; the repairs were not exercised", c.name)
		}
		if clean.Report != dirty.Report || clean.LinkStats != dirty.LinkStats ||
			clean.FECRecovered != dirty.FECRecovered || clean.Retransmitted != dirty.Retransmitted {
			t.Errorf("%s: poisoning recycled packets changed the results:\n%+v\n%+v", c.name, clean.Report, dirty.Report)
		}
		for i := range clean.Records {
			if clean.Records[i] != dirty.Records[i] {
				t.Fatalf("%s: record %d differs:\n%+v\n%+v", c.name, i, clean.Records[i], dirty.Records[i])
			}
		}
	}
}
