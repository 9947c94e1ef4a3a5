// Package session wires the full RTC pipeline into one deterministic
// discrete-event simulation: synthetic video source -> encoder controller
// (the paper's contribution or a baseline) -> x264-like encoder -> RTP
// packetizer -> pacer -> bottleneck link -> reassembler -> jitter buffer ->
// display, with a feedback path (per-packet arrival reports -> bandwidth
// estimator -> controller) closing the loop.
//
// A session is a pure function of its Config: same config, same seeds, same
// per-frame ledger. Run executes a single session end to end; New builds a
// Session on an externally owned scheduler so several flows can share one
// bottleneck link (see the fairness experiment); a Shell runs session
// after session in one session's recycled memory (the fleet's shards and
// the experiment workers), lending each run's Result until the next.
package session

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"rtcadapt/internal/audio"
	"rtcadapt/internal/cc"
	"rtcadapt/internal/codec"
	"rtcadapt/internal/core"
	"rtcadapt/internal/fb"
	"rtcadapt/internal/fec"
	"rtcadapt/internal/metrics"
	"rtcadapt/internal/netem"
	"rtcadapt/internal/obs"
	"rtcadapt/internal/pacer"
	"rtcadapt/internal/rtp"
	"rtcadapt/internal/scenario"
	"rtcadapt/internal/simtime"
	"rtcadapt/internal/trace"
	"rtcadapt/internal/units"
	"rtcadapt/internal/video"
)

// Config describes one end-to-end run.
type Config struct {
	// Duration is the capture span in virtual time. Default 30 s.
	Duration time.Duration
	// StartAt delays the session start (capture, feedback, pacing); the
	// default is zero. Used to stagger flows in multi-flow experiments.
	StartAt time.Duration
	// Seed drives every random component. Runs with equal Config are
	// identical.
	Seed int64

	// Content selects the video class. FPS defaults to 30.
	Content video.Class
	FPS     int
	// VideoSource overrides the synthetic source entirely (any
	// video.FrameSource, e.g. one replaying recorded complexity);
	// Content/FPS are ignored when set.
	VideoSource video.FrameSource
	// Audio adds an Opus-like 32 kbps voice stream sharing the
	// bottleneck; its quality is reported in Result.Audio.
	Audio bool

	// Trace drives the forward (media) link capacity. Required unless
	// ForwardLink is provided.
	Trace *trace.Trace
	// ForwardLink, when non-nil, is an externally owned (possibly
	// shared) bottleneck; the session sends into it but does not attach
	// a receiver — the owner must route delivered packets back via
	// Deliver (e.g. through an SSRCDemux). PropDelay/JitterAmp/LossProb
	// and queue settings are ignored in that case.
	ForwardLink *netem.Link
	// PropDelay is the one-way propagation delay each way. Zero means
	// 25 ms.
	PropDelay time.Duration
	// JitterAmp adds uniform per-packet delay jitter on the forward
	// link.
	JitterAmp time.Duration
	// LossProb is the forward-link random loss probability.
	LossProb float64
	// BurstLoss optionally adds a Gilbert-Elliott burst-loss process on
	// the forward link.
	BurstLoss *netem.GilbertElliott
	// FeedbackLossProb is the reverse-link random loss probability
	// (feedback packets).
	FeedbackLossProb float64
	// QueueLimitBytes bounds the forward bottleneck queue (zero: 150 KB).
	QueueLimitBytes units.Bytes

	// NACK enables receiver NACKs and sender retransmission (RFC 4585
	// style loss recovery). Off by default.
	NACK bool
	// Probing enables periodic padding probe clusters that rediscover
	// capacity quickly (libwebrtc-style probing); effective with the
	// default GCC estimator. Off by default.
	Probing bool
	// FECGroupSize enables XOR forward error correction with one repair
	// packet per group of this many media packets (FlexFEC style);
	// zero disables FEC. The controller's media target is reduced by
	// the FEC overhead so total send rate still matches the estimate.
	FECGroupSize int

	// MTU is the media payload size per packet (zero: 1200).
	MTU int
	// FeedbackInterval is the receiver report cadence (zero: 50 ms).
	FeedbackInterval time.Duration

	// InitialRate seeds the estimator and encoder (zero: 1 Mbps).
	InitialRate units.BitsPerSec

	// SSRC identifies this flow on a shared link. Zero derives one from
	// the seed.
	SSRC uint32

	// Controller is the encoder controller under test. Required; a
	// Controller must not be reused across runs.
	Controller core.Controller
	// NewEstimator constructs the bandwidth estimator; nil means GCC
	// with defaults. The capacity function argument reads the true
	// forward-link capacity (used by the oracle).
	NewEstimator func(capacity cc.CapacityFunc) cc.Estimator

	// Encoder optionally overrides encoder parameters. Zero fields take
	// the codec defaults; TargetBitrate, FPS and Seed are always set by
	// the session.
	Encoder codec.Config

	// Recorder is the flight recorder. New binds it to the scheduler
	// clock and threads it through every subsystem (estimator, codec,
	// pacer, forward link, and — via obs.Instrumentable — the
	// controller). Nil disables recording; results are bit-identical
	// either way.
	Recorder *obs.Recorder

	// PacerBurst, when positive, lets the pacer release up to this many
	// bytes of queued packets in one scheduled event instead of one event
	// per packet (see pacer.Config.Burst). Zero keeps per-packet release.
	PacerBurst units.Bytes
}

// TimelinePoint is a periodic sample of the control plane, for plotting.
type TimelinePoint struct {
	At            time.Duration
	Capacity      units.BitsPerSec // true link capacity
	Estimate      units.BitsPerSec // estimator target
	EncoderTarget units.BitsPerSec // encoder ABR target
	LinkQueue     time.Duration
	PacerQueue    time.Duration
}

// Result is everything a run produces.
type Result struct {
	// Records is the per-frame ledger in capture order.
	Records []metrics.FrameRecord
	// Report aggregates the whole session.
	Report metrics.Report
	// Timeline holds 100 ms control-plane samples.
	Timeline []TimelinePoint
	// LinkStats are the forward-link counters (shared counters when the
	// link is shared).
	LinkStats netem.Stats
	// PacerDropped counts sender-side pacer overflows.
	PacerDropped int
	// PLISent counts keyframe requests from the receiver.
	PLISent int
	// NacksSent counts sequences the receiver requested; Retransmitted
	// counts packets the sender resent in response.
	NacksSent, Retransmitted int
	// FECRepairs counts repair packets sent; FECRecovered counts media
	// packets reconstructed from them at the receiver.
	FECRepairs, FECRecovered int
	// Audio is the voice-stream report (nil when Config.Audio is off).
	Audio *audio.Report
	// ProbeClusters and ProbesApplied count probing activity.
	ProbeClusters, ProbesApplied int
	// ControllerName and EstimatorName identify the control plane.
	ControllerName, EstimatorName string
	// FrameInterval echoes the capture period for window math.
	FrameInterval time.Duration
}

// frameState is the sender-side state of one ledger record that Result
// needs and the record does not carry.
type frameState struct {
	motion   float64
	resolved bool
}

// timelineInterval is the control-plane sampling period.
const timelineInterval = 100 * time.Millisecond

// pendingSend carries one encoded frame's packets from encode completion
// to pacer enqueue. Records and their slices are pooled per session, so
// the per-frame send path does not allocate in steady state.
type pendingSend struct {
	s       *Session
	pkts    []*rtp.Packet
	repairs []*fec.Repair
}

// sendEncodedArg dispatches a pendingSend through the scheduler's
// closure-free AtArg path; the per-frame closure it replaces allocated on
// every captured frame.
func sendEncodedArg(a any) { ps := a.(*pendingSend); ps.s.sendEncoded(ps) }

// Session is one flow wired onto a scheduler. Construct with New, drive
// the scheduler, then call Result.
type Session struct {
	cfg   Config
	sched *simtime.Scheduler

	// spare keeps the components a configuration may leave unused, so a
	// recycled session (see Shell) finds them again when a later
	// configuration wants them.
	spare spareParts

	source     video.FrameSource
	enc        *codec.Encoder
	est        cc.Estimator
	forward    *netem.Link
	reverse    *netem.Link
	packetizer *rtp.Packetizer
	history    *fb.History
	recorder   *fb.Recorder
	reasm      *rtp.Reassembler
	nackGen    *rtp.NackGenerator
	rtxBuf     *rtp.RtxBuffer
	fec        *fecParts
	audioSrc   *audio.Source
	audioRecv  *audio.Receiver
	audioSent  int
	probe      *probeController
	jbuf       *rtp.JitterBuffer
	pc         *pacer.Pacer

	capacityFn cc.CapacityFunc

	// reverseTrace is the reverse link's constant capacity. A trace is
	// immutable, so init builds it once and a recycled session keeps it.
	reverseTrace *trace.Trace

	// records is the per-frame ledger in capture order, sized once for
	// the session's frame count; state runs parallel to it. Result
	// resolves records in place and returns the slice itself.
	records           []metrics.FrameRecord
	state             []frameState
	sendPool          []*pendingSend
	reports           []*fb.Report // every reverse-link payload minted; the first freeReports are free
	timeline          []TimelinePoint
	pliSent           int
	nacksSent         int
	retransmitted     int
	fecRepairs        int
	lastPLI           time.Duration
	keyframeRequested bool
	freeReports       int32 // beside the bool, in what would be its padding
	frameInterval     time.Duration

	// summ selects the Report's percentiles in buffers a recycled session
	// keeps; Result builds it on first use.
	summ *metrics.Summarizer

	// recycleTo, when set, takes the arrival buffers of consumed reports
	// in place of recorder (see RecycleFeedbackTo).
	recycleTo *fb.Recorder
}

// spareParts are the optional components with storage worth keeping: the
// built-in video source (unused under Config.VideoSource), the default
// estimator (unused under Config.NewEstimator), the private forward link
// (unused under Config.ForwardLink), the NACK machinery and the FEC
// machinery.
type spareParts struct {
	source  *video.Source
	gcc     *cc.GCC
	link    *netem.Link
	nackGen *rtp.NackGenerator
	rtxBuf  *rtp.RtxBuffer
	fec     *fecParts
}

// fecParts is the FEC machinery, on at both ends of a session or at
// neither: the sender's encoder, the receiver's decoder and the slice the
// decoder appends one delivery's recovered packets to. A Session holds it
// through one pointer to stay in the 768-byte size class (with its 8-byte
// malloc header it takes 760 bytes; TestSessionSizeClass pins it);
// separate fields for the three moved every session built outside a shell
// into the 896-byte class.
type fecParts struct {
	enc fec.GroupEncoder
	dec fec.Decoder
	out []*rtp.Packet
}

// reuse returns *p, allocating it on first use. A session keeps every
// component it ever built and re-initialises it in place on the next run.
func reuse[T any](p **T) *T {
	if *p == nil {
		*p = new(T)
	}
	return *p
}

// ApplyPath lowers a compiled scenario path onto the config: the
// capacity trace and every link impairment the path pins. NACK only ever
// turns on (a caller that enabled it keeps it), and the duration is set
// from the path only when the config's is zero, so a caller's explicit
// duration wins. A burst-loss rate lowers to a Gilbert-Elliott process
// with the suite's standard mean burst length of 8 packets; this is the
// only place that rule lives.
func (c *Config) ApplyPath(p scenario.Path) {
	c.Trace = p.Trace
	c.LossProb = p.Loss
	c.PropDelay = p.PropDelay
	c.QueueLimitBytes = p.Queue
	if p.NACK {
		c.NACK = true
	}
	if p.BurstLoss > 0 {
		c.BurstLoss = netem.NewGilbertElliott(8, p.BurstLoss)
	}
	if c.Duration == 0 {
		c.Duration = p.Duration
	}
}

// Validate checks the configuration for impossible parameterizations and
// reports the first problem found. New validates what it accepts; call
// Validate directly when building a Config that is stored or forwarded
// rather than passed straight to the constructor.
func (c *Config) Validate() error {
	if c.Trace == nil && c.ForwardLink == nil {
		return fmt.Errorf("session: Config.Trace or Config.ForwardLink is required")
	}
	if c.Controller == nil {
		return fmt.Errorf("session: Config.Controller is required")
	}
	if c.Duration < 0 {
		return fmt.Errorf("session: negative Config.Duration %v", c.Duration)
	}
	if c.FPS < 0 {
		return fmt.Errorf("session: negative Config.FPS %d", c.FPS)
	}
	if capturedFrames(c.Duration, c.frameInterval()) > math.MaxInt32 {
		// More frames than an int32 capture index numbers: the built-in
		// sources count from zero, so the ledger could not record them.
		return fmt.Errorf("session: Config.Duration %v captures more than %d frames", c.Duration, math.MaxInt32)
	}
	if c.LossProb < 0 || c.LossProb > 1 {
		return fmt.Errorf("session: Config.LossProb %v outside [0, 1]", c.LossProb)
	}
	if c.FeedbackLossProb < 0 || c.FeedbackLossProb > 1 {
		return fmt.Errorf("session: Config.FeedbackLossProb %v outside [0, 1]", c.FeedbackLossProb)
	}
	if c.QueueLimitBytes < 0 {
		return fmt.Errorf("session: negative Config.QueueLimitBytes %d", c.QueueLimitBytes)
	}
	if c.FECGroupSize < 0 {
		return fmt.Errorf("session: negative Config.FECGroupSize %d", c.FECGroupSize)
	}
	if c.MTU < 0 {
		return fmt.Errorf("session: negative Config.MTU %d", c.MTU)
	}
	if c.InitialRate < 0 {
		return fmt.Errorf("session: negative Config.InitialRate %v", float64(c.InitialRate))
	}
	if err := c.Encoder.Validate(); err != nil {
		return fmt.Errorf("session: Config.Encoder: %w", err)
	}
	return nil
}

// frameInterval is the capture period the session will run at: the
// caller's source's, or the built-in source's at FPS.
func (c *Config) frameInterval() time.Duration {
	if c.VideoSource != nil {
		return c.VideoSource.FrameInterval()
	}
	return (&video.SourceConfig{FPS: c.FPS}).FrameInterval()
}

// New wires a session onto sched. When cfg.ForwardLink is nil the session
// owns a private link driven by cfg.Trace and attaches itself as its
// receiver; otherwise it sends into the shared link and the owner must
// route deliveries back through Deliver. It panics on an invalid
// configuration (see Validate).
func New(sched *simtime.Scheduler, cfg Config) *Session {
	s := new(Session)
	s.init(sched, cfg)
	return s
}

// init wires the session as New(sched, cfg) describes. It is New's only
// construction path, and on a session that already ran it is the
// re-initialiser a Shell uses: every component the previous run built is
// re-initialised in place — its rings, windows, slabs and PRNG sources
// keep their storage — and everything else starts from zero. The previous
// run's scheduler events must be gone (a Reset or a new scheduler), and
// its Result must no longer be in use: the ledger and timeline are reused.
func (s *Session) init(sched *simtime.Scheduler, cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Duration == 0 {
		cfg.Duration = 30 * time.Second
	}
	if cfg.FPS == 0 {
		cfg.FPS = 30
	}
	if cfg.FeedbackInterval == 0 {
		cfg.FeedbackInterval = 50 * time.Millisecond
	}
	if cfg.InitialRate == 0 {
		cfg.InitialRate = 1e6
	}
	if cfg.SSRC == 0 {
		cfg.SSRC = uint32(cfg.Seed) + 100
	}
	cfg.Recorder.SetClock(sched)
	if in, ok := cfg.Controller.(obs.Instrumentable); ok {
		in.SetRecorder(cfg.Recorder)
	}
	s.reclaimReports()

	*s = Session{
		cfg:          cfg,
		sched:        sched,
		lastPLI:      -time.Hour,
		spare:        s.spare,
		enc:          reuse(&s.enc),
		reverse:      reuse(&s.reverse),
		reverseTrace: s.reverseTrace,
		packetizer:   reuse(&s.packetizer),
		history:      reuse(&s.history),
		recorder:     reuse(&s.recorder),
		reasm:        reuse(&s.reasm),
		pc:           reuse(&s.pc),
		capacityFn:   s.capacityFn,
		records:      s.records[:0],
		state:        s.state[:0],
		timeline:     s.timeline[:0],
		sendPool:     s.sendPool,
		reports:      s.reports,
		freeReports:  s.freeReports,
		summ:         s.summ,
	}

	if cfg.VideoSource != nil {
		s.source = cfg.VideoSource
	} else {
		src := reuse(&s.spare.source)
		src.Init(video.SourceConfig{Class: cfg.Content, FPS: cfg.FPS, Seed: cfg.Seed})
		s.source = src
	}
	s.frameInterval = s.source.FrameInterval()
	if frames := capturedFrames(cfg.Duration, s.frameInterval); s.records == nil || cap(s.records) < frames {
		s.records = make([]metrics.FrameRecord, 0, frames)
		s.state = make([]frameState, 0, frames)
	}

	encCfg := cfg.Encoder
	encCfg.TargetBitrate = cfg.InitialRate
	encCfg.FPS = cfg.FPS
	encCfg.Seed = cfg.Seed + 1
	encCfg.Recorder = cfg.Recorder
	s.enc.Init(encCfg)

	if cfg.ForwardLink != nil {
		s.forward = cfg.ForwardLink
	} else {
		s.forward = reuse(&s.spare.link)
		s.forward.Init(sched, netem.Config{
			Trace:           cfg.Trace,
			PropDelay:       cfg.PropDelay,
			JitterAmp:       cfg.JitterAmp,
			LossProb:        cfg.LossProb,
			BurstLoss:       cfg.BurstLoss,
			QueueLimitBytes: cfg.QueueLimitBytes,
			Seed:            cfg.Seed + 2,
			Recorder:        cfg.Recorder,
		})
		s.forward.SetReceiver(s)
	}
	if s.capacityFn == nil {
		s.capacityFn = func(time.Duration) units.BitsPerSec { return s.forward.Capacity() }
	}

	if cfg.NewEstimator != nil {
		s.est = cfg.NewEstimator(s.capacityFn)
	} else {
		gcc := reuse(&s.spare.gcc)
		gcc.Init(cc.GCCConfig{InitialRate: cfg.InitialRate, Recorder: cfg.Recorder})
		s.est = gcc
	}

	// The reverse path carries only small feedback packets; a generous
	// constant-rate link models it.
	if s.reverseTrace == nil {
		s.reverseTrace = trace.Constant(5e6)
	}
	s.reverse.Init(sched, netem.Config{
		Trace:     s.reverseTrace,
		PropDelay: cfg.PropDelay,
		LossProb:  cfg.FeedbackLossProb,
		Seed:      cfg.Seed + 3,
	})
	s.reverse.SetReceiver(netem.ReceiverFunc(s.onFeedback))

	s.packetizer.Init(cfg.SSRC, 96, cfg.MTU)
	s.history.Reset()
	s.recorder.Reset()
	s.reasm.Reset()
	// A decoder notices a missing reference within a few frames; a
	// 15-frame horizon (~500 ms) models that detection latency and
	// bounds PLI recovery time.
	s.reasm.Horizon = 15
	if cfg.NACK {
		s.nackGen = reuse(&s.spare.nackGen)
		s.nackGen.Reset()
		s.rtxBuf = reuse(&s.spare.rtxBuf)
		s.rtxBuf.Init(512)
	}
	if cfg.FECGroupSize > 0 {
		s.fec = reuse(&s.spare.fec)
		s.fec.enc.Init(cfg.SSRC, cfg.FECGroupSize)
		s.fec.dec.Reset()
	}
	if cfg.Audio {
		s.audioSrc = audio.NewSource(audio.Config{})
		s.audioRecv = audio.NewReceiver(audio.Config{})
	}
	if cfg.Probing {
		s.probe = newProbeController(s)
	}
	s.jbuf = rtp.NewJitterBuffer(0, 0)

	s.pc.Init(sched, pacer.Config{Rate: cfg.InitialRate, Burst: cfg.PacerBurst, Recorder: cfg.Recorder}, s.sendPacket)

	// Timers all start at StartAt.
	sched.At(cfg.StartAt, s.start)
}

// start captures the first frame and arms the session's timers; it runs at
// StartAt.
func (s *Session) start() {
	s.capture()
	s.sched.Tick(s.frameInterval, s.capture)
	s.sched.Tick(s.cfg.FeedbackInterval, s.feedbackTick)
	s.sched.Tick(timelineInterval, s.sampleTimeline)
	if s.audioSrc != nil {
		s.captureAudio()
		s.sched.Tick(s.audioSrc.FrameDur(), s.captureAudio)
	}
	if s.probe != nil {
		s.probe.start()
	}
}

// capturedFrames is how many frames capture takes in a session of
// duration d: one at each multiple of interval strictly before d.
func capturedFrames(d, interval time.Duration) int {
	if d <= 0 || interval <= 0 {
		return 0
	}
	return int((d-1)/interval) + 1
}

// reserveTimeline sizes the timeline for a run whose scheduler stops at
// end: one sample per tick after StartAt. Run, RunOn and RunShared know
// that end; a session on a caller-driven scheduler grows it by append.
func (s *Session) reserveTimeline(end time.Duration) {
	if n := int((end - s.cfg.StartAt) / timelineInterval); n > cap(s.timeline) {
		s.timeline = make([]TimelinePoint, 0, n)
	}
}

// frameSlot returns the ledger position of capture index idx. The built-in
// sources number frames densely from zero, so the offset from the first
// record hits directly; FrameSource promises only increasing indices, so
// a sparse source falls back to binary search.
func (s *Session) frameSlot(idx int) (int, bool) {
	if len(s.records) == 0 {
		return 0, false
	}
	if i := idx - int(s.records[0].Index); i >= 0 && i < len(s.records) && int(s.records[i].Index) == idx {
		return i, true
	}
	return slices.BinarySearchFunc(s.records, idx, func(r metrics.FrameRecord, target int) int {
		return cmp.Compare(int(r.Index), target)
	})
}

// acquirePending pops a pooled send record (slices already truncated by
// releasePending) or mints one on first use.
func (s *Session) acquirePending() *pendingSend {
	if n := len(s.sendPool); n > 0 {
		ps := s.sendPool[n-1]
		s.sendPool[n-1] = nil
		s.sendPool = s.sendPool[:n-1]
		return ps
	}
	return &pendingSend{s: s}
}

// releasePending nils out packet references (the pacer owns them now) and
// recycles the record; the slices keep their capacity for the next frame.
func (s *Session) releasePending(ps *pendingSend) {
	clear(ps.pkts)
	ps.pkts = ps.pkts[:0]
	clear(ps.repairs)
	ps.repairs = ps.repairs[:0]
	s.sendPool = append(s.sendPool, ps)
}

// sendEncoded enqueues one frame's packets once its encode delay elapses.
func (s *Session) sendEncoded(ps *pendingSend) {
	for _, p := range ps.pkts {
		s.pc.Enqueue(p, p.WireSize())
	}
	for _, rep := range ps.repairs {
		s.pc.Enqueue(rep, rep.WireSize())
	}
	s.releasePending(ps)
}

// SSRC returns the flow's RTP SSRC (the demux key on shared links).
func (s *Session) SSRC() uint32 { return s.cfg.SSRC }

// SendFeedback sends a receiver report to this sender over its reverse
// link. Topologies where a middlebox terminates feedback (the SFU) send
// their reports through it; the session's own receiver sends its reports
// the same way from feedbackTick. The report travels as a *fb.Report from
// the session's free list, which onFeedback refills once the report is
// consumed; reports lost on the reverse link, or in flight when the run
// ends, return to it at the next init. The
// report's arrival buffer is the session's from here on: once consumed it
// goes to the recorder RecycleFeedbackTo named, or else to the session's
// own.
func (s *Session) SendFeedback(rep fb.Report) {
	p := s.acquireReport()
	*p = rep
	s.sendReport(p)
}

// RecycleFeedbackTo names the recorder that consumed reports hand their
// arrival buffers back to, in place of the session's own receiver-side
// recorder. A middlebox that terminates the session's media and reports
// on it through SendFeedback (the SFU) names the recorder it flushes, so
// the buffers its reports carry come back to it instead of piling up at
// a recorder that, in that topology, records nothing. Buffers are
// fungible, so the session's own consumed reports go there too. New and
// every run in a Shell start from the session's own recorder.
func (s *Session) RecycleFeedbackTo(rec *fb.Recorder) { s.recycleTo = rec }

// acquireReport takes a consumed report off the free list (zeroed except
// for its NACK buffer, which it keeps for reuse) or mints one. Either way
// it joins the reports in flight, the tail of s.reports.
func (s *Session) acquireReport() *fb.Report {
	if s.freeReports == 0 {
		p := new(fb.Report)
		s.reports = append(s.reports, p)
		return p
	}
	s.freeReports--
	return s.reports[s.freeReports]
}

// releaseReport moves a consumed report from the reports in flight back
// to the free list. A session has a few reports in flight at a time.
func (s *Session) releaseReport(p *fb.Report) {
	for i := int(s.freeReports); i < len(s.reports); i++ {
		if s.reports[i] == p {
			s.reports[i], s.reports[s.freeReports] = s.reports[s.freeReports], p
			s.freeReports++
			return
		}
	}
}

// reclaimReports returns the reports the last run left in flight, or lost
// on the reverse link, to the free list and their arrival buffers to the
// recorder consumed reports went to: the run's scheduler events and its
// link queues are gone, so nothing will deliver them.
func (s *Session) reclaimReports() {
	rec := s.recorder
	if s.recycleTo != nil {
		rec = s.recycleTo
	}
	for _, p := range s.reports[s.freeReports:] {
		rec.Recycle(*p)
		*p = fb.Report{Nacks: p.Nacks[:0]}
	}
	s.freeReports = int32(len(s.reports))
}

// sendReport puts a report on the reverse link.
func (s *Session) sendReport(p *fb.Report) {
	s.reverse.Send(netem.Packet{Size: p.WireSize(), Payload: p})
}

// sendPacket is the pacer's transmit callback.
func (s *Session) sendPacket(payload any, wireSize int) {
	switch pkt := payload.(type) {
	case *rtp.Packet:
		s.history.Add(pkt.Ext.TransportSeq, s.sched.Now(), wireSize)
		s.cfg.Recorder.PacketSent(pkt.Ext.TransportSeq, wireSize)
		if s.rtxBuf != nil {
			s.rtxBuf.Store(pkt)
		}
		s.forward.Send(netem.Packet{Size: wireSize, Payload: pkt})
	case *fec.Repair:
		s.history.Add(pkt.TransportSeq, s.sched.Now(), wireSize)
		s.cfg.Recorder.PacketSent(pkt.TransportSeq, wireSize)
		s.forward.Send(netem.Packet{Size: wireSize, Payload: pkt})
	default:
		panic("session: unknown pacer payload")
	}
}

// requestPLI arms a keyframe request, rate-limited to one per 500 ms.
func (s *Session) requestPLI() {
	if s.sched.Now()-s.lastPLI < 500*time.Millisecond {
		return
	}
	s.lastPLI = s.sched.Now()
	s.recorder.RequestPLI()
	s.pliSent++
	s.cfg.Recorder.PLISent()
}

// markDropped resolves a frame the receiver gave up on.
func (s *Session) markDropped(frameID uint32) {
	if i, ok := s.frameSlot(int(frameID)); ok && !s.state[i].resolved {
		s.records[i].Outcome = metrics.Dropped
		s.state[i].resolved = true
		s.cfg.Recorder.FrameDropped(int(frameID))
	}
	s.requestPLI()
}

// Deliver consumes one packet at the receiver (media or FEC repair). It
// implements netem.Receiver for privately owned links and is called by the
// SSRC demux on shared links.
//
// A consumed RTP packet goes back to the packetizer when the session is
// provably its only holder: the receive path keeps no pointer to it (the
// reassembler, FEC decoder and NACK generator copy what they need), and
// without a retransmission buffer (NACK off) neither does the sender. A
// consumed FEC repair always goes back to the encoder: the decoder copies
// what it protects and no retransmission buffer stores repairs. Packets
// and repairs that are dropped or lost never get here and are never handed
// back.
func (s *Session) Deliver(np netem.Packet, at time.Duration) {
	switch pkt := np.Payload.(type) {
	case *rtp.Packet:
		s.recorder.OnPacket(pkt.Ext.TransportSeq, at, np.Size)
		switch pkt.PayloadType {
		case audioPayloadType:
			if s.audioRecv != nil {
				s.audioRecv.OnFrame(int(pkt.Ext.FrameID), pkt.Ext.CaptureTS, at)
			}
		case probePayloadType:
			// Padding: CC accounting only.
		default:
			s.handleMedia(pkt, at)
			if s.fec != nil {
				s.fec.out = s.fec.dec.OnMedia(s.fec.out[:0], pkt.SequenceNumber)
				s.handleRecovered(at)
			}
		}
		if s.soleHolder() {
			s.packetizer.Release(pkt)
		}
	case *fec.Repair:
		s.recorder.OnPacket(pkt.TransportSeq, at, np.Size)
		if s.fec != nil {
			s.fec.out = s.fec.dec.OnRepair(s.fec.out[:0], pkt)
			s.handleRecovered(at)
			s.fec.enc.Release(pkt)
		}
	}
}

// handleRecovered pushes the packets the FEC decoder just recovered
// through the receive pipeline. They live in the decoder's storage, which
// handleMedia never reaches back into.
func (s *Session) handleRecovered(at time.Duration) {
	for _, rec := range s.fec.out {
		s.handleMedia(rec, at)
	}
}

// soleHolder reports whether a delivered packet is held by nothing but
// the session's receive path, which keeps no pointer to it: true unless a
// retransmission buffer (NACK) may still resend it.
func (s *Session) soleHolder() bool { return s.rtxBuf == nil }

// handleMedia pushes one (received or FEC-recovered) media packet through
// the receive pipeline.
func (s *Session) handleMedia(pkt *rtp.Packet, at time.Duration) {
	if s.nackGen != nil {
		s.nackGen.OnPacket(pkt.SequenceNumber)
	}
	complete, ok := s.reasm.Push(pkt, at)
	for _, lostID := range s.reasm.Lost() {
		s.markDropped(lostID)
	}
	if !ok {
		return
	}
	// Tentative display time; decode-order dependencies and the lateness
	// budget are enforced in the assembly pass.
	displayAt := s.jbuf.PushUnordered(complete)
	i, have := s.frameSlot(int(complete.FrameID))
	if !have {
		return
	}
	rec := &s.records[i]
	rec.Outcome = metrics.Delivered
	rec.Arrival = complete.Arrival
	rec.DisplayAt = displayAt
	s.state[i].resolved = true
}

// onFeedback consumes one feedback report at the sender.
func (s *Session) onFeedback(np netem.Packet, at time.Duration) {
	rep := np.Payload.(*fb.Report)
	results := s.history.OnReport(*rep)
	if s.cfg.Recorder.Enabled() {
		lost := 0
		for _, r := range results {
			if r.Lost {
				lost++
			}
		}
		s.cfg.Recorder.FeedbackReceived(len(results)-lost, lost)
	}
	s.est.OnPacketResults(at, results)
	if s.probe != nil {
		s.probe.onResults(results)
	}
	snap := s.est.Snapshot(at)
	if snap.Target > 0 {
		s.pc.SetRate(snap.Target)
	}
	// With FEC on, the controller budgets the media share of the
	// estimate; repairs consume the rest.
	if s.fec != nil {
		snap.Target = units.BitsPerSec(float64(snap.Target) / (1 + s.fec.enc.Overhead()))
	}
	s.cfg.Controller.OnFeedback(at, snap)
	if rep.PLI {
		s.keyframeRequested = true
	}
	for _, seq := range rep.Nacks {
		if s.rtxBuf == nil {
			break
		}
		if orig, ok := s.rtxBuf.Get(seq); ok {
			clone := s.packetizer.Retransmit(orig)
			s.retransmitted++
			s.pc.Enqueue(clone, clone.WireSize())
		}
	}
	// The report is fully consumed; hand its arrival buffer back to the
	// recorder that produces the session's feedback and the report itself,
	// NACK buffer included, to the free list. In the loopback topology
	// that is the recorder that produced it; behind a middlebox it is the
	// middlebox's (RecycleFeedbackTo). Reports lost on the reverse link
	// come back at the next init (reclaimReports).
	rec := s.recorder
	if s.recycleTo != nil {
		rec = s.recycleTo
	}
	rec.Recycle(*rep)
	*rep = fb.Report{Nacks: rep.Nacks[:0]}
	s.releaseReport(rep)
}

// feedbackTick flushes the receiver report onto the reverse link. The NACK
// list is collected into the recycled report's own buffer.
func (s *Session) feedbackTick() {
	p := s.acquireReport()
	nacks := p.Nacks
	*p = s.recorder.Flush(s.sched.Now())
	if s.nackGen != nil {
		p.Nacks = s.nackGen.Collect(nacks, s.sched.Now())
		s.nacksSent += len(p.Nacks)
	}
	s.sendReport(p)
}

// capture grabs, encodes, and packetizes one frame.
func (s *Session) capture() {
	now := s.sched.Now()
	if now >= s.cfg.StartAt+s.cfg.Duration {
		return
	}
	frame := s.source.Next()
	// Capture PTS is relative to the session start.
	frame.PTS += s.cfg.StartAt
	snap := s.est.Snapshot(now)
	ctx := core.FrameContext{
		Now:               now,
		Frame:             frame,
		FrameInterval:     s.frameInterval,
		EncoderTarget:     s.enc.TargetBitrate(),
		EncoderScale:      s.enc.Scale(),
		LastQP:            s.enc.LastQP(),
		VBVFill:           s.enc.VBVFill(),
		VBVSize:           s.enc.VBVSize(),
		PacerQueueBytes:   s.pc.QueueBytes(),
		PacerQueueDelay:   s.pc.QueueDelay(),
		InFlightBytes:     s.history.InFlight(),
		Estimate:          snap,
		KeyframeRequested: s.keyframeRequested,
	}
	d := s.cfg.Controller.BeforeEncode(ctx)
	if d.ForceKeyframe {
		s.keyframeRequested = false
	}
	ef := s.enc.Encode(frame, d)
	s.cfg.Controller.OnEncoded(now, ef)

	skip := ef.Type == codec.TypeSkip
	// QP (at most codec.MaxQP) and the temporal layer (below the at most
	// two layers) fit a byte because codec.Config.Validate bounds both.
	rec := metrics.FrameRecord{
		Index:         ledgerInt32("Index", frame.Index),
		CaptureTS:     frame.PTS,
		Bytes:         ledgerInt32("Bytes", ef.Bytes()),
		QP:            uint8(ef.QP),
		Keyframe:      ef.Type == codec.TypeI,
		TemporalLayer: uint8(ef.TemporalLayer),
		SSIM:          ef.SSIM,
	}
	if skip {
		rec.Outcome = metrics.Skipped
	}
	s.records = append(s.records, rec)
	s.state = append(s.state, frameState{motion: ef.MotionRatio, resolved: skip})
	if skip {
		return
	}
	ps := s.acquirePending()
	ps.pkts = s.packetizer.PacketizeAppend(ps.pkts, ef)
	if s.fec != nil {
		for _, p := range ps.pkts {
			if rep := s.fec.enc.Add(p); rep != nil {
				ps.repairs = append(ps.repairs, rep)
			}
		}
		// Frame-aligned flush: repairs never wait for the next frame.
		if rep := s.fec.enc.Flush(); rep != nil {
			ps.repairs = append(ps.repairs, rep)
		}
		for _, rep := range ps.repairs {
			rep.TransportSeq = s.packetizer.AllocTransportSeq()
		}
		s.fecRepairs += len(ps.repairs)
	}
	s.sched.AfterArg(ef.EncodeTime, sendEncodedArg, ps)
}

// ledgerInt32 narrows a ledger field to the record's int32, panicking
// with the field's name rather than wrapping: the capture index comes
// from a caller's FrameSource and the size from an encoder that extreme
// complexity can drive past 2 GiB.
func ledgerInt32(field string, v int) int32 {
	if v < math.MinInt32 || v > math.MaxInt32 {
		panic(fmt.Sprintf("session: FrameRecord.%s %d overflows int32", field, v))
	}
	return int32(v)
}

// audioPayloadType marks audio packets on the shared path.
const audioPayloadType = 111

// captureAudio emits one audio frame straight onto the link (audio is
// tiny; production pacers treat it as pass-through).
func (s *Session) captureAudio() {
	now := s.sched.Now()
	if now >= s.cfg.StartAt+s.cfg.Duration {
		return
	}
	f := s.audioSrc.Next()
	pkt := &rtp.Packet{
		Header: rtp.Header{
			Version:        2,
			Marker:         true,
			PayloadType:    audioPayloadType,
			SequenceNumber: uint16(f.Index),
			SSRC:           s.cfg.SSRC,
		},
		Ext: rtp.Extension{
			TransportSeq: s.packetizer.AllocTransportSeq(),
			FrameID:      uint32(f.Index),
			FragCount:    1,
			CaptureTS:    f.PTS + s.cfg.StartAt,
		},
		PayloadLen: f.Bytes,
	}
	s.audioSent++
	s.history.Add(pkt.Ext.TransportSeq, now, pkt.WireSize())
	s.forward.Send(netem.Packet{Size: pkt.WireSize(), Payload: pkt})
}

// sampleTimeline records one control-plane sample.
func (s *Session) sampleTimeline() {
	now := s.sched.Now()
	p := TimelinePoint{
		At:            now,
		Capacity:      s.capacityFn(now),
		Estimate:      s.est.Snapshot(now).Target,
		EncoderTarget: s.enc.TargetBitrate(),
		LinkQueue:     s.forward.QueueDelay(),
		PacerQueue:    s.pc.QueueDelay(),
	}
	s.timeline = append(s.timeline, p)
	if s.cfg.Recorder.Enabled() {
		s.cfg.Recorder.QueueDepth("pacer", s.pc.QueueBytes(), p.PacerQueue)
		s.cfg.Recorder.QueueDepth("link", s.forward.QueueBytes(), p.LinkQueue)
	}
}

// CaptureLedger returns the sender-side view of every captured frame —
// encoder outputs (bytes, QP, keyframe, temporal layer, encoded SSIM)
// with Outcome set only for sender-side skips — without receiver
// resolution or freeze chaining. Topologies that terminate the media
// elsewhere (e.g. the SFU) build receiver ledgers from this. The ledger
// is lent, not copied: it is the session's own, which Result resolves in
// place and a recycled session overwrites, so read it before either and
// do not modify it.
func (s *Session) CaptureLedger() []metrics.FrameRecord { return s.records }

// Result resolves the ledger in place after the scheduler has run and
// returns it as Records, without a copy. Call once.
func (s *Session) Result() Result {
	// First enforce decode-order dependencies (H.264 P-chain): frames
	// whose references never arrived become undecodable freezes, and
	// frames whose references were repaired late (NACK) decode late.
	records := s.records
	for i := range records {
		if !s.state[i].resolved {
			records[i].Outcome = metrics.Dropped
		}
	}
	metrics.EnforceDecodeOrder(records, s.jbuf.LatenessBudget)

	lastDisplayedSSIM := 1.0
	for i := range records {
		rec := &records[i]
		switch rec.Outcome {
		case metrics.Delivered:
			lastDisplayedSSIM = rec.SSIM
		case metrics.Dropped:
			// The viewer saw a freeze in this slot.
			rec.SSIM = codec.SkipSSIM(lastDisplayedSSIM, s.state[i].motion)
			lastDisplayedSSIM = rec.SSIM
		case metrics.Skipped:
			// Encoder already chained the skip penalty into SSIM.
			lastDisplayedSSIM = rec.SSIM
		}
	}

	var audioRep *audio.Report
	if s.audioRecv != nil {
		rep := s.audioRecv.Report(s.audioSent)
		audioRep = &rep
	}
	probeClusters, probesApplied := 0, 0
	if s.probe != nil {
		probeClusters, probesApplied = s.probe.clusters, s.probe.applied
	}

	return Result{
		Records:        records,
		Audio:          audioRep,
		ProbeClusters:  probeClusters,
		ProbesApplied:  probesApplied,
		Report:         reuse(&s.summ).SummarizeAll(records, s.frameInterval),
		Timeline:       s.timeline,
		LinkStats:      s.forward.Stats(),
		PacerDropped:   s.pc.Dropped(),
		PLISent:        s.pliSent,
		NacksSent:      s.nacksSent,
		Retransmitted:  s.retransmitted,
		FECRepairs:     s.fecRepairs,
		FECRecovered:   s.fecRecovered(),
		ControllerName: s.cfg.Controller.Name(),
		EstimatorName:  s.est.Name(),
		FrameInterval:  s.frameInterval,
	}
}

// fecRecovered reads the decoder counter: zero with FEC off.
func (s *Session) fecRecovered() int {
	if s.fec == nil {
		return 0
	}
	return s.fec.dec.Recovered()
}

// Run executes one session end to end: the common single-flow entry point.
// It is a borrowing run on a shell nothing else holds, so the Result is
// the caller's to keep.
func Run(cfg Config) Result {
	return new(Shell).RunBorrowed(simtime.NewScheduler(), cfg)
}

// run (re)builds the session for cfg on sched, which must be fresh or
// freshly Reset, and executes it until two seconds past the end of
// capture.
func (s *Session) run(sched *simtime.Scheduler, cfg Config) Result {
	s.init(sched, cfg)
	end := s.cfg.StartAt + s.cfg.Duration + 2*time.Second
	s.reserveTimeline(end)
	sched.RunUntil(end)
	return s.Result()
}

// SSRCDemux routes packets from a shared link to sessions by RTP SSRC.
type SSRCDemux struct {
	sessions map[uint32]*Session
}

// NewSSRCDemux builds a demux over the given sessions and returns it; use
// it as the shared link's receiver.
func NewSSRCDemux(sessions ...*Session) *SSRCDemux {
	d := new(SSRCDemux)
	d.route(sessions)
	return d
}

// route points the demux at sessions alone, keeping its map's storage.
func (d *SSRCDemux) route(sessions []*Session) {
	if d.sessions == nil {
		d.sessions = make(map[uint32]*Session)
	}
	clear(d.sessions)
	for _, s := range sessions {
		d.sessions[s.SSRC()] = s
	}
}

// Deliver implements netem.Receiver.
func (d *SSRCDemux) Deliver(pkt netem.Packet, at time.Duration) {
	var ssrc uint32
	switch p := pkt.Payload.(type) {
	case *rtp.Packet:
		ssrc = p.SSRC
	case *fec.Repair:
		ssrc = p.SSRC
	default:
		return
	}
	if s, ok := d.sessions[ssrc]; ok {
		s.Deliver(pkt, at)
	}
}
