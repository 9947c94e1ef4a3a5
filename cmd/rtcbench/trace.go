package main

import (
	"encoding/json"
	"os"
	"time"

	"rtcadapt/internal/cc"
	"rtcadapt/internal/codec"
	"rtcadapt/internal/core"
	"rtcadapt/internal/fb"
	"rtcadapt/internal/netem"
	"rtcadapt/internal/obs"
	"rtcadapt/internal/session"
	"rtcadapt/internal/simtime"
	"rtcadapt/internal/units"
	"rtcadapt/internal/video"
)

// The traced pass records spans from the benchmark's own files, around its
// calls into each layer: wrappers injected through the public
// session.Config hooks (NewEstimator, Controller, VideoSource) and a
// receiver on a forward link the benchmark owns. Spans are aggregated per
// name; with -chrome they are also kept in memory and written as Chrome
// trace JSON when the run ends.

// Span names with fixed ids; experiment spans are added after them.
const (
	spUnit   = iota // one unit: a session or a shared run
	spBuild         // the population Build func or flow construction
	spSetup         // links, wrappers and session.New
	spRun           // the Step-driven event loop
	spResult        // Session.Result and session.Summarize
	spVideo         // VideoSource.Next
	spCC            // estimator calls
	spCore          // controller calls
	spRx            // Session.Deliver, directly or through the SSRC demux
)

// fixedSpanNames names the fixed span ids.
func fixedSpanNames() []string {
	return []string{"unit", "scenario.build", "session.setup", "run", "session.result",
		"video", "cc", "core", "session.rx"}
}

// maxStoredSpans caps the spans kept for a Chrome trace; aggregates keep
// counting past it.
const maxStoredSpans = 1 << 18

type span struct {
	name       int32
	parent     int32
	start, end int64 // ns since the tracer's base
}

type openSpan struct {
	name  int
	id    int32
	start int64
	child int64
}

// tracer aggregates inclusive and self time per span name, and keeps the
// spans themselves when asked to.
type tracer struct {
	keep  bool
	base  time.Time
	names []string
	spans []span
	stack []openSpan
	total []int64
	self  []int64
	calls []int64
}

func newTracer(keep bool) *tracer {
	t := &tracer{keep: keep, base: time.Now()}
	for _, n := range fixedSpanNames() {
		t.addName(n)
	}
	return t
}

// addName registers a span name and returns its id.
func (t *tracer) addName(name string) int {
	t.names = append(t.names, name)
	t.total = append(t.total, 0)
	t.self = append(t.self, 0)
	t.calls = append(t.calls, 0)
	return len(t.names) - 1
}

// now reads the wall clock. The wrappers that call it are reachable from
// the simulator through the interfaces they implement, but the readings
// only ever land in the tracer: nothing flows back into a session.
func (t *tracer) now() int64 {
	//lint:ignore transitivepurity span timestamps are measurements, never simulation inputs
	return int64(time.Since(t.base))
}

// begin opens a span; the innermost open span is its parent.
func (t *tracer) begin(name int) {
	id := int32(-1)
	if t.keep && len(t.spans) < maxStoredSpans {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].id
		}
		t.spans = append(t.spans, span{name: int32(name), parent: parent})
		id = int32(len(t.spans) - 1)
	}
	now := t.now()
	if id >= 0 {
		t.spans[id].start = now
	}
	t.stack = append(t.stack, openSpan{name: name, id: id, start: now})
}

// end closes the innermost span. Its self time is its duration minus the
// part its children cover.
func (t *tracer) end() {
	now := t.now()
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now - top.start
	t.total[top.name] += d
	t.self[top.name] += d - top.child
	t.calls[top.name]++
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
	if top.id >= 0 {
		t.spans[top.id].end = now
	}
}

// writeChrome writes the stored spans as Chrome trace-event JSON.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{Name: t.names[s.name], Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: 1, Args: map[string]any{"id": i, "parent": s.parent}}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// rateAt is one pacer rate update: the estimator target read right after
// a feedback batch, which session hands to Pacer.SetRate.
type rateAt struct {
	at   time.Duration
	rate units.BitsPerSec
}

// flowCapture holds what the traced pass saw of one flow: the replay
// inputs of the codec, rtp and pacer layers.
type flowCapture struct {
	frames    []video.Frame
	dirs      []codec.Directives
	encoded   []codec.EncodedFrame
	encodedAt []time.Duration
	rates     []rateAt
}

// tracedEstimator spans every estimator call and captures the pacer rate
// updates.
type tracedEstimator struct {
	inner    cc.Estimator
	tr       *tracer
	fc       *flowCapture
	wantRate bool
}

func (e *tracedEstimator) OnPacketResults(now time.Duration, results []fb.PacketResult) {
	e.tr.begin(spCC)
	e.inner.OnPacketResults(now, results)
	e.tr.end()
	e.wantRate = true
}

func (e *tracedEstimator) Snapshot(now time.Duration) cc.Snapshot {
	e.tr.begin(spCC)
	snap := e.inner.Snapshot(now)
	e.tr.end()
	if e.wantRate {
		e.wantRate = false
		if snap.Target > 0 {
			e.fc.rates = append(e.fc.rates, rateAt{at: now, rate: snap.Target})
		}
	}
	return snap
}

func (e *tracedEstimator) Name() string { return e.inner.Name() }

// tracedController spans every controller call and captures the encoder's
// inputs and outputs.
type tracedController struct {
	inner core.Controller
	tr    *tracer
	fc    *flowCapture
}

func (c *tracedController) Name() string { return c.inner.Name() }

func (c *tracedController) OnFeedback(now time.Duration, snap cc.Snapshot) {
	c.tr.begin(spCore)
	c.inner.OnFeedback(now, snap)
	c.tr.end()
}

func (c *tracedController) BeforeEncode(ctx core.FrameContext) codec.Directives {
	c.tr.begin(spCore)
	d := c.inner.BeforeEncode(ctx)
	c.tr.end()
	c.fc.frames = append(c.fc.frames, ctx.Frame)
	c.fc.dirs = append(c.fc.dirs, d)
	return d
}

func (c *tracedController) OnEncoded(now time.Duration, f codec.EncodedFrame) {
	c.tr.begin(spCore)
	c.inner.OnEncoded(now, f)
	c.tr.end()
	c.fc.encoded = append(c.fc.encoded, f)
	c.fc.encodedAt = append(c.fc.encodedAt, now)
}

// SetRecorder forwards the session's recorder to an instrumentable
// controller, as session.New does for an unwrapped one.
func (c *tracedController) SetRecorder(r *obs.Recorder) {
	if in, ok := c.inner.(obs.Instrumentable); ok {
		in.SetRecorder(r)
	}
}

// tracedSource spans every captured frame.
type tracedSource struct {
	inner video.FrameSource
	tr    *tracer
}

func (s *tracedSource) Next() video.Frame {
	s.tr.begin(spVideo)
	f := s.inner.Next()
	s.tr.end()
	return f
}

func (s *tracedSource) FPS() int                     { return s.inner.FPS() }
func (s *tracedSource) FrameInterval() time.Duration { return s.inner.FrameInterval() }

// initialRate is the rate session.New seeds the estimator, encoder and
// pacer with.
func initialRate(cfg session.Config) units.BitsPerSec {
	if cfg.InitialRate == 0 {
		return 1e6
	}
	return cfg.InitialRate
}

// instrument rebuilds cfg's estimator, controller and video source as the
// session would, wrapped in span-recording shims.
func instrument(cfg *session.Config, tr *tracer, fc *flowCapture) {
	src := cfg.VideoSource
	if src == nil {
		src = video.NewSource(video.SourceConfig{Class: cfg.Content, FPS: cfg.FPS, Seed: cfg.Seed})
	}
	cfg.VideoSource = &tracedSource{inner: src, tr: tr}

	newEst := cfg.NewEstimator
	rate, rec := initialRate(*cfg), cfg.Recorder
	cfg.NewEstimator = func(capacity cc.CapacityFunc) cc.Estimator {
		var est cc.Estimator
		if newEst != nil {
			est = newEst(capacity)
		} else {
			est = cc.NewGCC(cc.GCCConfig{InitialRate: rate, Recorder: rec})
		}
		return &tracedEstimator{inner: est, tr: tr, fc: fc}
	}
	cfg.Controller = &tracedController{inner: cfg.Controller, tr: tr, fc: fc}
}

// newForwardLink builds the forward link session.New builds for a session
// that owns its link.
func newForwardLink(sched *simtime.Scheduler, cfg session.Config) *netem.Link {
	return netem.NewLink(sched, netem.Config{
		Trace:           cfg.Trace,
		PropDelay:       cfg.PropDelay,
		JitterAmp:       cfg.JitterAmp,
		LossProb:        cfg.LossProb,
		BurstLoss:       cfg.BurstLoss,
		QueueLimitBytes: cfg.QueueLimitBytes,
		Seed:            cfg.Seed + 2,
		Recorder:        cfg.Recorder,
	})
}

// newSharedLink builds the bottleneck session.RunShared builds.
func newSharedLink(sched *simtime.Scheduler, sh session.SharedConfig) *netem.Link {
	return netem.NewLink(sched, netem.Config{
		Trace:           sh.Trace,
		PropDelay:       sh.PropDelay,
		QueueLimitBytes: sh.QueueLimitBytes,
		LossProb:        sh.LossProb,
		Seed:            sh.Seed,
	})
}
