package session

import (
	"testing"
	"time"

	"rtcadapt/internal/cc"
	"rtcadapt/internal/core"
	"rtcadapt/internal/metrics"
	"rtcadapt/internal/netem"
	"rtcadapt/internal/scenario"
	"rtcadapt/internal/trace"
	"rtcadapt/internal/video"
)

// compiledTrace compiles a test scenario to its capacity trace. Test
// scenarios are literals and presets, so a compile error is a bug in the
// test.
func compiledTrace(s scenario.Scenario) *trace.Trace {
	p, err := s.Compile(scenario.CompileConfig{})
	if err != nil {
		panic(err)
	}
	return p.Trace
}

func steadyConfig(ctrl core.Controller) Config {
	return Config{
		Duration:    20 * time.Second,
		Seed:        42,
		Content:     video.TalkingHead,
		Trace:       trace.Constant(2.5e6),
		InitialRate: 1e6,
		Controller:  ctrl,
	}
}

func TestSteadyStateDeliversFrames(t *testing.T) {
	res := Run(steadyConfig(core.NewNativeRC()))
	rep := res.Report
	if rep.Frames < 590 || rep.Frames > 610 {
		t.Fatalf("frames = %d, want ~600 (20s at 30fps)", rep.Frames)
	}
	deliveredFrac := float64(rep.DeliveredFrames) / float64(rep.Frames)
	if deliveredFrac < 0.98 {
		t.Errorf("delivered fraction %.3f on an uncongested link", deliveredFrac)
	}
	// One-way: 25 ms prop + serialization + small queue. P95 well under 200 ms.
	if rep.P95NetDelay > 200*time.Millisecond {
		t.Errorf("steady-state P95 latency %v too high", rep.P95NetDelay)
	}
	if rep.MeanSSIM < 0.9 {
		t.Errorf("steady-state SSIM %.3f too low", rep.MeanSSIM)
	}
}

func TestSteadyStateUtilizesLink(t *testing.T) {
	res := Run(steadyConfig(core.NewResetOnly()))
	// GCC should push the encoder toward the 2.5 Mbps capacity; demand
	// at least 40% utilization after ramp-up, and no overshoot beyond
	// capacity on average.
	second10 := metrics.Summarize(res.Records, 10*time.Second, 20*time.Second, res.FrameInterval)
	if second10.Bitrate < 1e6 {
		t.Errorf("late-session bitrate %.2f Mbps, want >= 1 (ramp-up failed)", second10.Bitrate/1e6)
	}
	if second10.Bitrate > 3e6 {
		t.Errorf("late-session bitrate %.2f Mbps exceeds capacity", second10.Bitrate/1e6)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		return Run(Config{
			Duration:    10 * time.Second,
			Seed:        7,
			Content:     video.Gaming,
			Trace:       compiledTrace(scenario.StepDrop(2.5e6, 0.8e6, 5*time.Second, 20*time.Second)),
			InitialRate: 1e6,
			Controller:  core.NewAdaptive(core.AdaptiveConfig{}),
			JitterAmp:   2 * time.Millisecond,
			LossProb:    0.001,
		})
	}
	a, b := run(), run()
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, a.Records[i], b.Records[i])
		}
	}
}

func dropConfig(ctrl core.Controller, seed int64) Config {
	return Config{
		Duration:    30 * time.Second,
		Seed:        seed,
		Content:     video.TalkingHead,
		Trace:       compiledTrace(scenario.MustPreset("standard")),
		InitialRate: 1e6,
		Controller:  ctrl,
	}
}

// postDropP95 measures P95 network latency in the 5 s after the drop.
func postDropP95(res Result) time.Duration {
	rep := metrics.Summarize(res.Records, 10*time.Second, 15*time.Second, res.FrameInterval)
	return rep.P95NetDelay
}

func TestBaselineSuffersOnDrop(t *testing.T) {
	res := Run(dropConfig(core.NewNativeRC(), 42))
	p95 := postDropP95(res)
	// The motivating phenomenon must exist: the baseline's post-drop P95
	// latency spikes well above the steady-state value.
	pre := metrics.Summarize(res.Records, 5*time.Second, 10*time.Second, res.FrameInterval).P95NetDelay
	if p95 < 2*pre {
		t.Errorf("baseline post-drop P95 %v vs pre-drop %v: latency spike missing", p95, pre)
	}
	if p95 < 150*time.Millisecond {
		t.Errorf("baseline post-drop P95 %v implausibly low", p95)
	}
}

func TestAdaptiveBeatsBaselineOnDrop(t *testing.T) {
	// The paper's headline claim, single-seed smoke version: adaptive
	// must reduce post-drop P95 latency substantially.
	base := Run(dropConfig(core.NewNativeRC(), 42))
	adpt := Run(dropConfig(core.NewAdaptive(core.AdaptiveConfig{}), 42))
	bp, ap := postDropP95(base), postDropP95(adpt)
	if ap >= bp {
		t.Fatalf("adaptive post-drop P95 %v not below baseline %v", ap, bp)
	}
	reduction := 1 - ap.Seconds()/bp.Seconds()
	if reduction < 0.15 {
		t.Errorf("latency reduction only %.1f%%, want substantial", reduction*100)
	}
	t.Logf("post-drop P95: baseline=%v adaptive=%v reduction=%.1f%%", bp, ap, reduction*100)
}

func TestAdaptiveQualityNotWorse(t *testing.T) {
	base := Run(dropConfig(core.NewNativeRC(), 42))
	adpt := Run(dropConfig(core.NewAdaptive(core.AdaptiveConfig{}), 42))
	if adpt.Report.MeanSSIM < base.Report.MeanSSIM-0.01 {
		t.Errorf("adaptive SSIM %.4f clearly below baseline %.4f",
			adpt.Report.MeanSSIM, base.Report.MeanSSIM)
	}
	t.Logf("SSIM: baseline=%.4f adaptive=%.4f", base.Report.MeanSSIM, adpt.Report.MeanSSIM)
}

func TestOracleEstimatorWiring(t *testing.T) {
	cfg := dropConfig(core.NewAdaptive(core.AdaptiveConfig{}), 1)
	cfg.NewEstimator = func(capacity cc.CapacityFunc) cc.Estimator {
		return cc.NewOracle(capacity, 0.95)
	}
	res := Run(cfg)
	if res.EstimatorName != "oracle" {
		t.Errorf("estimator name %q", res.EstimatorName)
	}
	// With a clairvoyant estimator the post-drop latency is bounded by
	// the frames already encoded and queued before the drop.
	if p := postDropP95(res); p > 700*time.Millisecond {
		t.Errorf("oracle-driven post-drop P95 %v", p)
	}
}

func TestLossTriggersPLIAndRecovers(t *testing.T) {
	cfg := steadyConfig(core.NewResetOnly())
	cfg.LossProb = 0.02
	cfg.Duration = 15 * time.Second
	res := Run(cfg)
	if res.PLISent == 0 {
		t.Error("2% loss produced no PLI")
	}
	// Without NACK, every lost packet breaks the P-chain until the next
	// PLI-triggered keyframe; at 2% loss and a 500 ms PLI rate limit the
	// pipeline limps along — the realistic motivation for NACK (see
	// TestNACKRecoversLoss). Recovery must still function: some frames
	// keep flowing.
	frac := float64(res.Report.DeliveredFrames) / float64(res.Report.Frames)
	if frac < 0.08 {
		t.Errorf("delivered fraction %.2f under 2%% loss: PLI recovery dead", frac)
	}
	// Keyframes must appear in response to PLI (beyond the first frame).
	kf := 0
	for _, r := range res.Records {
		if r.Keyframe {
			kf++
		}
	}
	if kf < 2 {
		t.Errorf("keyframes = %d; PLI did not force refresh", kf)
	}
}

func TestTimelineSamples(t *testing.T) {
	res := Run(steadyConfig(core.NewNativeRC()))
	if len(res.Timeline) < 150 {
		t.Fatalf("timeline has %d samples, want ~200 over 20s+drain", len(res.Timeline))
	}
	for _, p := range res.Timeline {
		if p.Capacity != 2.5e6 {
			t.Fatalf("capacity sample %v", p.Capacity)
		}
		if p.Estimate < 0 || p.EncoderTarget <= 0 {
			t.Fatalf("bad sample %+v", p)
		}
	}
}

func TestLedgerConservation(t *testing.T) {
	res := Run(dropConfig(core.NewAdaptive(core.AdaptiveConfig{}), 3))
	rep := res.Report
	if rep.DeliveredFrames+rep.SkippedFrames+rep.DroppedFrames != rep.Frames {
		t.Errorf("outcome partition broken: %+v", rep)
	}
	// Records are in capture order with consecutive indices.
	for i, r := range res.Records {
		if int(r.Index) != i {
			t.Fatalf("record %d has index %d", i, r.Index)
		}
	}
	// All delivered frames have sane latencies.
	for _, r := range res.Records {
		if r.Outcome == metrics.Delivered {
			d := r.NetworkDelay()
			if d <= 0 || d > 5*time.Second {
				t.Fatalf("frame %d latency %v implausible", r.Index, d)
			}
			if r.DisplayAt < r.Arrival {
				t.Fatalf("frame %d displayed before arrival", r.Index)
			}
		}
	}
}

func TestPanicsOnMissingConfig(t *testing.T) {
	check := func(name string, cfg Config) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		Run(cfg)
	}
	check("no trace", Config{Controller: core.NewNativeRC()})
	check("no controller", Config{Trace: trace.Constant(1e6)})
}

func TestNACKRecoversLoss(t *testing.T) {
	base := steadyConfig(core.NewResetOnly())
	base.LossProb = 0.03
	base.Duration = 15 * time.Second
	noNack := Run(base)

	withCfg := steadyConfig(core.NewResetOnly())
	withCfg.LossProb = 0.03
	withCfg.Duration = 15 * time.Second
	withCfg.NACK = true
	withNack := Run(withCfg)

	if withNack.NacksSent == 0 || withNack.Retransmitted == 0 {
		t.Fatalf("NACK machinery idle: nacks=%d rtx=%d", withNack.NacksSent, withNack.Retransmitted)
	}
	fracNo := float64(noNack.Report.DeliveredFrames) / float64(noNack.Report.Frames)
	fracWith := float64(withNack.Report.DeliveredFrames) / float64(withNack.Report.Frames)
	if fracWith < fracNo+0.3 {
		t.Errorf("NACK improvement too small: %.3f -> %.3f", fracNo, fracWith)
	}
	if fracWith < 0.9 {
		t.Errorf("delivery with NACK only %.3f under 3%% loss", fracWith)
	}
	// Keyframe requests should not explode when losses are repaired.
	if withNack.PLISent > noNack.PLISent*2 {
		t.Errorf("PLI exploded with NACK: %d -> %d", noNack.PLISent, withNack.PLISent)
	}
	t.Logf("delivery %.3f -> %.3f, PLI %d -> %d, rtx %d",
		fracNo, fracWith, noNack.PLISent, withNack.PLISent, withNack.Retransmitted)
}

func TestBurstLossSession(t *testing.T) {
	cfg := steadyConfig(core.NewAdaptive(core.AdaptiveConfig{}))
	cfg.Duration = 15 * time.Second
	cfg.BurstLoss = netem.NewGilbertElliott(8, 0.03)
	cfg.NACK = true
	res := Run(cfg)
	if res.LinkStats.DroppedLoss == 0 {
		t.Fatal("burst loss model inactive")
	}
	frac := float64(res.Report.DeliveredFrames) / float64(res.Report.Frames)
	if frac < 0.75 {
		t.Errorf("delivery %.3f under bursty 3%% loss with NACK", frac)
	}
}

func TestSharedLinkTwoFlows(t *testing.T) {
	mk := func(seed int64, start time.Duration) Config {
		return Config{
			Duration:    20 * time.Second,
			StartAt:     start,
			Seed:        seed,
			Content:     video.TalkingHead,
			InitialRate: 1e6,
			Controller:  core.NewAdaptive(core.AdaptiveConfig{}),
		}
	}
	results := RunShared(
		SharedConfig{Trace: trace.Constant(3e6), Seed: 9},
		[]Config{mk(1, 0), mk(2, 0)},
	)
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	var total float64
	for i, res := range results {
		if res.Report.Frames < 550 {
			t.Errorf("flow %d captured only %d frames", i, res.Report.Frames)
		}
		frac := float64(res.Report.DeliveredFrames) / float64(res.Report.Frames)
		if frac < 0.9 {
			t.Errorf("flow %d delivered fraction %.3f", i, frac)
		}
		if res.Report.Bitrate <= 0 {
			t.Errorf("flow %d bitrate %v", i, res.Report.Bitrate)
		}
		total += res.Report.Bitrate
	}
	// The two flows cannot exceed link capacity on average.
	if total > 3.3e6 {
		t.Errorf("combined bitrate %.2f Mbps exceeds 3 Mbps capacity", total/1e6)
	}
	// Rough fairness: neither flow starves below a fifth of the other.
	a, b := results[0].Report.Bitrate, results[1].Report.Bitrate
	if a > 5*b || b > 5*a {
		t.Errorf("gross unfairness: %.2f vs %.2f Mbps", a/1e6, b/1e6)
	}
}

func TestSharedLinkStaggeredStart(t *testing.T) {
	mk := func(seed int64, start time.Duration) Config {
		return Config{
			Duration:    15 * time.Second,
			StartAt:     start,
			Seed:        seed,
			Content:     video.TalkingHead,
			InitialRate: 1e6,
			Controller:  core.NewAdaptive(core.AdaptiveConfig{}),
		}
	}
	results := RunShared(
		SharedConfig{Trace: trace.Constant(2.5e6), Seed: 3},
		[]Config{mk(1, 0), mk(2, 10*time.Second)},
	)
	// Flow B's first capture is at its StartAt.
	if got := results[1].Records[0].CaptureTS; got != 10*time.Second {
		t.Errorf("flow B first capture at %v, want 10s", got)
	}
	// Flow A experiences the arrival of flow B as a bandwidth drop; its
	// adaptive controller must keep its post-arrival latency bounded.
	post := metrics.Summarize(results[0].Records, 10*time.Second, 15*time.Second, results[0].FrameInterval)
	if post.P95NetDelay > time.Second {
		t.Errorf("flow A post-join P95 %v", post.P95NetDelay)
	}
}

func TestFeedbackLossDegradesGracefully(t *testing.T) {
	cfg := steadyConfig(core.NewAdaptive(core.AdaptiveConfig{}))
	cfg.Duration = 15 * time.Second
	cfg.FeedbackLossProb = 0.3 // lose a third of feedback packets
	res := Run(cfg)
	frac := float64(res.Report.DeliveredFrames) / float64(res.Report.Frames)
	if frac < 0.9 {
		t.Errorf("delivery %.3f with 30%% feedback loss; control loop too fragile", frac)
	}
	if res.Report.P95NetDelay > 500*time.Millisecond {
		t.Errorf("P95 %v with feedback loss on an uncongested link", res.Report.P95NetDelay)
	}
}

func TestFECRecoversWithoutRetransmissionDelay(t *testing.T) {
	cfg := steadyConfig(core.NewAdaptive(core.AdaptiveConfig{}))
	cfg.Duration = 15 * time.Second
	cfg.LossProb = 0.02
	cfg.FECGroupSize = 4
	res := Run(cfg)
	if res.FECRepairs == 0 {
		t.Fatal("no repair packets sent")
	}
	if res.FECRecovered == 0 {
		t.Fatal("no packets recovered")
	}
	frac := float64(res.Report.DeliveredFrames) / float64(res.Report.Frames)
	if frac < 0.85 {
		t.Errorf("delivery %.3f with FEC under 2%% loss", frac)
	}
	// FEC recovery happens in-band: latency must stay near lossless
	// levels, unlike NACK's +RTT repairs.
	if res.Report.P95NetDelay > 300*time.Millisecond {
		t.Errorf("P95 %v with FEC; recovery should not add RTTs", res.Report.P95NetDelay)
	}
}

func TestAudioStreamQuality(t *testing.T) {
	cfg := steadyConfig(core.NewAdaptive(core.AdaptiveConfig{}))
	cfg.Audio = true
	cfg.Duration = 15 * time.Second
	res := Run(cfg)
	if res.Audio == nil {
		t.Fatal("no audio report")
	}
	a := res.Audio
	// 15 s at 50 packets/s = ~750 frames.
	if a.Sent < 740 || a.Sent > 760 {
		t.Errorf("audio sent %d, want ~750", a.Sent)
	}
	if float64(a.Delivered)/float64(a.Sent) < 0.99 {
		t.Errorf("audio delivery %.3f on a clean link", float64(a.Delivered)/float64(a.Sent))
	}
	if a.MOS < 4.0 {
		t.Errorf("audio MOS %.2f on a clean link", a.MOS)
	}
	// Video must still work alongside audio.
	if res.Report.MeanSSIM < 0.9 {
		t.Errorf("video SSIM %.3f with audio enabled", res.Report.MeanSSIM)
	}
}

func TestAudioSuffersDuringBaselineDrop(t *testing.T) {
	// Audio shares the bottleneck queue: the baseline's post-drop queue
	// spike must hurt audio too, and the adaptive controller must protect
	// it — the cross-media benefit of fast encoder adaptation.
	mkCfg := func(ctrl core.Controller) Config {
		cfg := dropConfig(ctrl, 42)
		cfg.Audio = true
		return cfg
	}
	base := Run(mkCfg(core.NewNativeRC()))
	adpt := Run(mkCfg(core.NewAdaptive(core.AdaptiveConfig{})))
	if base.Audio == nil || adpt.Audio == nil {
		t.Fatal("missing audio reports")
	}
	if adpt.Audio.MOS <= base.Audio.MOS {
		t.Errorf("adaptive audio MOS %.2f not above baseline %.2f",
			adpt.Audio.MOS, base.Audio.MOS)
	}
	t.Logf("audio MOS: baseline=%.2f adaptive=%.2f (loss %.1f%% vs %.1f%%)",
		base.Audio.MOS, adpt.Audio.MOS, base.Audio.LossFrac*100, adpt.Audio.LossFrac*100)
}

func TestNoAudioByDefault(t *testing.T) {
	res := Run(steadyConfig(core.NewNativeRC()))
	if res.Audio != nil {
		t.Error("audio report present without Config.Audio")
	}
}

// replaySource is a caller-supplied video.FrameSource: it replays
// recorded frames at 30 fps, cycling when the session outlasts them.
type replaySource struct {
	frames []video.Frame
	index  int
}

func (s *replaySource) FPS() int                     { return 30 }
func (s *replaySource) FrameInterval() time.Duration { return time.Second / 30 }

func (s *replaySource) Next() video.Frame {
	f := s.frames[s.index%len(s.frames)]
	f.Index = s.index
	f.PTS = time.Duration(s.index) * s.FrameInterval()
	s.index++
	return f
}

func TestVideoTraceSourceSession(t *testing.T) {
	// Replay a recorded complexity trace through the full pipeline.
	recorded := video.NewSource(video.SourceConfig{Class: video.Gaming, Seed: 4}).Take(150)
	src := &replaySource{frames: recorded}
	res := Run(Config{
		Duration:    10 * time.Second,
		Seed:        1,
		Trace:       trace.Constant(2e6),
		VideoSource: src,
		Controller:  core.NewAdaptive(core.AdaptiveConfig{}),
	})
	if res.Report.Frames < 290 {
		t.Fatalf("frames = %d", res.Report.Frames)
	}
	frac := float64(res.Report.DeliveredFrames) / float64(res.Report.Frames)
	if frac < 0.95 {
		t.Errorf("delivery %.3f replaying a trace source", frac)
	}
}

func TestLongSessionSequenceWraparound(t *testing.T) {
	if testing.Short() {
		t.Skip("long session")
	}
	// A 5-minute session at ~2 Mbps sends ~75k packets, wrapping the
	// 16-bit RTP sequence space; NACK bookkeeping and reassembly must
	// survive the wrap under loss.
	cfg := Config{
		Duration:    5 * time.Minute,
		Seed:        1,
		Content:     video.TalkingHead,
		Trace:       trace.Constant(2e6),
		InitialRate: 1e6,
		LossProb:    0.005,
		NACK:        true,
		Controller:  core.NewAdaptive(core.AdaptiveConfig{}),
	}
	res := Run(cfg)
	if res.Report.Frames < 8900 {
		t.Fatalf("frames = %d", res.Report.Frames)
	}
	frac := float64(res.Report.DeliveredFrames) / float64(res.Report.Frames)
	if frac < 0.97 {
		t.Errorf("delivery %.4f over a 5-minute lossy session", frac)
	}
	// Late-session health: the last minute must look like the first.
	early := metrics.Summarize(res.Records, 30*time.Second, 90*time.Second, res.FrameInterval)
	late := metrics.Summarize(res.Records, 4*time.Minute, 5*time.Minute, res.FrameInterval)
	if late.P95NetDelay > early.P95NetDelay*3+100*time.Millisecond {
		t.Errorf("late-session P95 %v degraded vs early %v (wraparound leak?)",
			late.P95NetDelay, early.P95NetDelay)
	}
}

func TestProbingSpeedsRecoveryAfterDropEnds(t *testing.T) {
	// Capacity drops 2.5 -> 0.8 at t=10s and recovers at t=20s. Without
	// probing, GCC reclaims the restored capacity at ~8%/s; with probe
	// clusters the estimator jumps to proven rates. Measure the time to
	// regain a 1.8 Mbps encode rate after recovery.
	reclaim := func(probing bool) time.Duration {
		res := Run(Config{
			Duration:    45 * time.Second,
			Seed:        5,
			Content:     video.TalkingHead,
			Trace:       compiledTrace(scenario.MustPreset("flash-crowd")),
			InitialRate: 1e6,
			Probing:     probing,
			Controller:  core.NewAdaptive(core.AdaptiveConfig{}),
		})
		if probing && (res.ProbeClusters == 0 || res.ProbesApplied == 0) {
			t.Fatalf("probing inactive: clusters=%d applied=%d", res.ProbeClusters, res.ProbesApplied)
		}
		for _, p := range res.Timeline {
			if p.At >= 20*time.Second && p.EncoderTarget >= 1.8e6 {
				return p.At - 20*time.Second
			}
		}
		return time.Hour // never reclaimed
	}
	slow := reclaim(false)
	fast := reclaim(true)
	if fast >= slow {
		t.Errorf("probing did not speed reclaim: %v -> %v", slow, fast)
	}
	if fast > 10*time.Second {
		t.Errorf("probing reclaim took %v", fast)
	}
	t.Logf("reclaim to 1.8 Mbps: no-probe=%v probe=%v", slow, fast)
}

func TestProbingHarmlessOnSteadyLink(t *testing.T) {
	cfg := steadyConfig(core.NewAdaptive(core.AdaptiveConfig{}))
	cfg.Probing = true
	cfg.Duration = 15 * time.Second
	res := Run(cfg)
	if res.ProbeClusters == 0 {
		t.Fatal("no probe clusters on a steady link")
	}
	if res.Report.P95NetDelay > 250*time.Millisecond {
		t.Errorf("P95 %v with probing on a steady link", res.Report.P95NetDelay)
	}
	frac := float64(res.Report.DeliveredFrames) / float64(res.Report.Frames)
	if frac < 0.97 {
		t.Errorf("delivery %.3f with probing", frac)
	}
}
