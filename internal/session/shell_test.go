package session

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"rtcadapt/internal/cc"
	"rtcadapt/internal/core"
	"rtcadapt/internal/fb"
	"rtcadapt/internal/metrics"
	"rtcadapt/internal/netem"
	"rtcadapt/internal/rtp"
	"rtcadapt/internal/scenario"
	"rtcadapt/internal/simtime"
	"rtcadapt/internal/trace"
	"rtcadapt/internal/units"
	"rtcadapt/internal/video"
)

// sentinel values no live session produces.
const (
	sentinelInt = -0x5eed
	// sentinelByte is above codec.MaxQP, the temporal-layer bound and
	// every metrics.Outcome, for the ledger's one-byte fields.
	sentinelByte = 0xEE
	sentinelTime = -time.Hour
	sentinelRate = units.BitsPerSec(-1)
)

var sentinelPacket = &rtp.Packet{PayloadLen: sentinelInt}

// poisonShell overwrites every buffer a session keeps for its next run
// with sentinel values, up to each slice's capacity: the ledger, its
// state, the timeline, the pooled send records, the recycled reports and
// their NACK buffers, and the packets the retransmission buffer still
// holds (they come back out of the packetizer's rewound slabs). A
// re-initialised session that read any of it before writing would carry
// a sentinel into its results.
func poisonShell(s *Session) {
	for i := range s.records[:cap(s.records)] {
		s.records[:cap(s.records)][i] = metrics.FrameRecord{
			Index: sentinelInt, CaptureTS: sentinelTime, Arrival: sentinelTime, DisplayAt: sentinelTime,
			Bytes: sentinelInt, QP: sentinelByte, Keyframe: true, TemporalLayer: sentinelByte,
			SSIM: sentinelInt, Outcome: sentinelByte,
		}
	}
	for i := range s.state[:cap(s.state)] {
		s.state[:cap(s.state)][i] = frameState{motion: sentinelInt, resolved: true}
	}
	for i := range s.timeline[:cap(s.timeline)] {
		s.timeline[:cap(s.timeline)][i] = TimelinePoint{
			At: sentinelTime, Capacity: sentinelRate, Estimate: sentinelRate, EncoderTarget: sentinelRate,
			LinkQueue: sentinelTime, PacerQueue: sentinelTime,
		}
	}
	for _, ps := range s.sendPool {
		for i := range ps.pkts[:cap(ps.pkts)] {
			ps.pkts[:cap(ps.pkts)][i] = sentinelPacket
		}
	}
	for _, rep := range s.reports {
		nacks := rep.Nacks
		*rep = fb.Report{
			GeneratedAt: sentinelTime, HighestSeq: 0xdeadbeef, FractionLost: sentinelInt, PLI: true,
			Arrivals: []fb.PacketArrival{{TransportSeq: 0xdeadbeef, Arrival: sentinelTime, Size: sentinelInt}},
		}
		for i := range nacks[:cap(nacks)] {
			nacks[:cap(nacks)][i] = 0xdead
		}
		rep.Nacks = nacks
	}
	if b := s.spare.rtxBuf; b != nil {
		for seq := 0; seq < 1<<16; seq++ {
			if pkt, ok := b.Get(uint16(seq)); ok {
				poison(pkt)
			}
		}
	}
}

// oracleEstimator injects a non-default estimator (the shell's kept GCC
// must be left alone).
func oracleEstimator(capacity cc.CapacityFunc) cc.Estimator { return cc.NewOracle(capacity, 0.95) }

// shellSequence is a run of differently shaped sessions — long then short,
// NACK, FEC, probing, audio, jitter, burst loss, a sparse frame source,
// an injected estimator, a start offset and another frame rate — so that
// every session inherits buffers sized and filled by a different one.
func shellSequence() []func() Config {
	adaptive := func() core.Controller { return core.NewAdaptive(core.AdaptiveConfig{}) }
	return []func() Config{
		func() Config { return dropConfig(adaptive(), 11) },
		func() Config {
			cfg := steadyConfig(core.NewNativeRC())
			cfg.Duration = 3 * time.Second
			return cfg
		},
		func() Config {
			cfg := dropConfig(adaptive(), 12)
			cfg.Duration, cfg.NACK, cfg.LossProb = 12*time.Second, true, 0.03
			return cfg
		},
		func() Config {
			cfg := dropConfig(adaptive(), 13)
			cfg.Duration, cfg.FECGroupSize, cfg.LossProb = 8*time.Second, 4, 0.02
			return cfg
		},
		func() Config {
			cfg := dropConfig(adaptive(), 14)
			cfg.Duration, cfg.Probing, cfg.Audio = 10*time.Second, true, true
			return cfg
		},
		func() Config {
			cfg := steadyConfig(adaptive())
			cfg.Duration, cfg.JitterAmp, cfg.FeedbackLossProb = 6*time.Second, 4*time.Millisecond, 0.05
			return cfg
		},
		func() Config {
			cfg := dropConfig(adaptive(), 15)
			cfg.Duration, cfg.BurstLoss, cfg.NACK = 9*time.Second, netem.NewGilbertElliott(8, 0.03), true
			return cfg
		},
		func() Config {
			cfg := steadyConfig(adaptive())
			cfg.Duration = 5 * time.Second
			cfg.VideoSource = sparseSource{video.NewSource(video.SourceConfig{Class: video.Gaming, FPS: 24, Seed: 16})}
			return cfg
		},
		func() Config {
			cfg := dropConfig(adaptive(), 17)
			cfg.Duration, cfg.NewEstimator = 7*time.Second, oracleEstimator
			return cfg
		},
		func() Config {
			cfg := dropConfig(core.NewNativeRC(), 18)
			cfg.Duration, cfg.StartAt, cfg.FPS, cfg.Content = 4*time.Second, 700*time.Millisecond, 15, video.Sports
			return cfg
		},
		func() Config { return dropConfig(adaptive(), 19) },
	}
}

// sameResult fails unless got deep-equals want.
func sameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if len(got.Records) != len(want.Records) {
		t.Fatalf("%s: %d records, fresh run %d", label, len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		if got.Records[i] != want.Records[i] {
			t.Fatalf("%s: record %d differs:\n%+v\n%+v", label, i, got.Records[i], want.Records[i])
		}
	}
	if !reflect.DeepEqual(got.Timeline, want.Timeline) {
		t.Fatalf("%s: timelines differ", label)
	}
	got.Records, got.Timeline, want.Records, want.Timeline = nil, nil, nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: results differ:\n%+v\n%+v", label, got, want)
	}
}

// TestRecycledShellMatchesFresh runs one shell through shellSequence,
// poisoning every retained buffer between runs, and requires each run's
// full Result — ledger, timeline and every counter — to deep-equal a
// fresh Run of the same configuration. It then runs the sequence through
// Shell.Run and compares Summaries with fresh RunOn calls.
func TestRecycledShellMatchesFresh(t *testing.T) {
	var sh Shell
	sched := simtime.NewScheduler()
	for i, mk := range shellSequence() {
		sched.Reset()
		got := sh.s.run(sched, mk())
		sameResult(t, "run "+string(rune('a'+i)), got, Run(mk()))
		poisonShell(&sh.s)
	}
	var summaries Shell
	for i, mk := range shellSequence() {
		sched.Reset()
		got := summaries.Run(sched, Unit{Index: i, Cfg: mk()})
		if want := (Unit{Index: i, Cfg: mk()}).RunOn(simtime.NewScheduler()); got != want {
			t.Fatalf("unit %d: shell summary differs from RunOn:\n%+v\n%+v", i, got, want)
		}
	}
}

// TestShellForwardLinkRunsFresh checks the one case a shell does not
// recycle: a unit sending into an external link still runs correctly,
// and a recycled run after it matches a fresh one.
func TestShellForwardLinkRunsFresh(t *testing.T) {
	var sh Shell
	sched := simtime.NewScheduler()
	sh.Run(sched, Unit{Cfg: dropConfig(core.NewAdaptive(core.AdaptiveConfig{}), 21)})
	sched.Reset()
	link := netem.NewLink(sched, netem.Config{Trace: trace.Constant(2e6)})
	cfg := steadyConfig(core.NewAdaptive(core.AdaptiveConfig{}))
	cfg.Duration, cfg.ForwardLink = 3*time.Second, link
	sh.Run(sched, Unit{Cfg: cfg})
	if link.Stats().Accepted == 0 {
		t.Fatal("the external link carried nothing")
	}
	sched.Reset()
	got := sh.Run(sched, Unit{Index: 2, Cfg: dropConfig(core.NewAdaptive(core.AdaptiveConfig{}), 22)})
	if want := (Unit{Index: 2, Cfg: dropConfig(core.NewAdaptive(core.AdaptiveConfig{}), 22)}).RunOn(simtime.NewScheduler()); got != want {
		t.Fatalf("recycled run after an external link differs:\n%+v\n%+v", got, want)
	}
}

// fuzzConfig builds a session over a drop-and-recover path drawn from the
// scenario grid's parameter space (drop magnitude and duration, RTT,
// loss), plus burst loss, NACK, jitter, queue size, duration and content.
func fuzzConfig(seed int64, mag, dropMs, rttMs, lossPct, burstPct, durMs uint16, flags uint8) Config {
	drop := time.Duration(100+int(dropMs)%4000) * time.Millisecond
	sc := scenario.Scenario{
		Name: "fuzz",
		Phases: []scenario.Phase{
			{Duration: time.Second, Capacity: 2.5e6},
			{Duration: drop, Capacity: units.BitsPerSec(2.5e6 * (1 - float64(mag%95)/100))},
			{Duration: 2 * time.Second, Capacity: 2.5e6},
		},
		Loss:      float64(lossPct%6) / 100,
		BurstLoss: float64(burstPct%4) / 100,
		RTT:       time.Duration(rttMs%400) * time.Millisecond,
		NACK:      flags&1 != 0,
	}
	if flags&2 != 0 {
		sc.Queue = 30_000
	}
	path, err := sc.Compile(scenario.CompileConfig{Seed: seed})
	if err != nil {
		panic(err)
	}
	cfg := Config{
		Duration:   time.Duration(500+int(durMs)%5000) * time.Millisecond,
		Seed:       seed,
		Content:    video.Class(flags >> 2 & 3),
		Controller: core.NewAdaptive(core.AdaptiveConfig{}),
	}
	cfg.ApplyPath(path)
	if flags&16 != 0 {
		cfg.JitterAmp = 3 * time.Millisecond
	}
	if flags&32 != 0 {
		cfg.FECGroupSize = 5
	}
	return cfg
}

// FuzzShellReuse runs two configurations drawn from the scenario
// parameter space back to back in one shell, with the shell poisoned
// between them, and requires both Results to deep-equal fresh runs.
func FuzzShellReuse(f *testing.F) {
	f.Add(int64(1), uint16(70), uint16(1000), uint16(50), uint16(0), uint16(0), uint16(3000), uint8(0),
		int64(2), uint16(30), uint16(500), uint16(200), uint16(2), uint16(1), uint16(1000), uint8(1))
	f.Add(int64(9), uint16(90), uint16(3000), uint16(300), uint16(5), uint16(3), uint16(4500), uint8(63),
		int64(3), uint16(10), uint16(100), uint16(0), uint16(0), uint16(0), uint16(0), uint8(34))
	f.Fuzz(func(t *testing.T, s1 int64, m1, d1, r1, l1, b1, u1 uint16, f1 uint8,
		s2 int64, m2, d2, r2, l2, b2, u2 uint16, f2 uint8) {
		first := func() Config { return fuzzConfig(s1, m1, d1, r1, l1, b1, u1, f1) }
		second := func() Config { return fuzzConfig(s2, m2, d2, r2, l2, b2, u2, f2) }
		var sh Shell
		sched := simtime.NewScheduler()
		sameResult(t, "first", sh.s.run(sched, first()), Run(first()))
		poisonShell(&sh.s)
		sched.Reset()
		sameResult(t, "second", sh.s.run(sched, second()), Run(second()))
	})
}

// sharedSequence is a run of differently shaped shared-bottleneck runs —
// two flows, three staggered flows with FEC, NACK and shared-link loss,
// one short flow, two flows again with their SSRCs set — so that every
// run of a SharedShell inherits a link, sessions and a demux sized and
// filled by a different one. Each call builds fresh controllers.
func sharedSequence() []func() (SharedConfig, []Config) {
	adaptive := func() core.Controller { return core.NewAdaptive(core.AdaptiveConfig{}) }
	return []func() (SharedConfig, []Config){
		func() (SharedConfig, []Config) {
			a, b := dropConfig(adaptive(), 1), dropConfig(core.NewNativeRC(), 2)
			a.Duration, b.Duration = 8*time.Second, 6*time.Second
			return SharedConfig{Trace: trace.Constant(3e6), Seed: 9}, []Config{a, b}
		},
		func() (SharedConfig, []Config) {
			a, b, c := dropConfig(adaptive(), 3), dropConfig(adaptive(), 4), steadyConfig(core.NewNativeRC())
			a.Duration, a.FECGroupSize = 7*time.Second, 4
			b.Duration, b.StartAt, b.NACK = 5*time.Second, 2*time.Second, true
			c.Duration, c.StartAt = 4*time.Second, 3*time.Second
			return SharedConfig{Trace: trace.Constant(4e6), LossProb: 0.01, PropDelay: 40 * time.Millisecond, Seed: 5},
				[]Config{a, b, c}
		},
		func() (SharedConfig, []Config) {
			a := steadyConfig(adaptive())
			a.Duration = 3 * time.Second
			return SharedConfig{Trace: trace.Constant(2e6), QueueLimitBytes: 40_000, Seed: 6}, []Config{a}
		},
		func() (SharedConfig, []Config) {
			a, b := dropConfig(core.NewNativeRC(), 7), dropConfig(adaptive(), 8)
			a.Duration, a.SSRC = 6*time.Second, 77
			b.Duration, b.StartAt, b.SSRC = 4*time.Second, time.Second, 88
			return SharedConfig{Trace: trace.Constant(3e6), Seed: 10}, []Config{a, b}
		},
	}
}

// TestSharedShellMatchesFresh runs sharedSequence through one
// SharedShell, poisoning every buffer its sessions keep between runs, and
// requires each flow's full Result — ledger, timeline and every counter —
// to deep-equal that of a fresh RunShared.
func TestSharedShellMatchesFresh(t *testing.T) {
	var sh SharedShell
	sched := simtime.NewScheduler()
	for i, mk := range sharedSequence() {
		sched.Reset()
		shared, flows := mk()
		got := sh.RunBorrowed(sched, shared, flows)
		shared, flows = mk()
		want := RunShared(shared, flows)
		if len(got) != len(want) {
			t.Fatalf("run %d: %d results, fresh run %d", i, len(got), len(want))
		}
		for f := range want {
			sameResult(t, fmt.Sprintf("run %d flow %d", i, f), got[f], want[f])
		}
		for _, s := range sh.sessions {
			poisonShell(s)
		}
	}
}
