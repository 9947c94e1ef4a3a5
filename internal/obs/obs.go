// Package obs is the deterministic flight recorder: typed structured
// events stamped with simtime virtual timestamps, recorded into a bounded
// ring buffer, plus a counter/gauge registry. It is the observability leg
// next to the repo's correctness (rtclint) and performance (parallel
// runner) tooling: a recorded session exposes the causal chain the paper's
// timing story is about — estimate falls at t, controller retargets within
// one feedback interval, queue drains by t+Δ — instead of only
// end-of-run aggregates.
//
// Determinism contract: every event is stamped from the simtime virtual
// clock and sequence-numbered in emission order, so the same (config,
// seed) produces a byte-identical exported trace. A nil *Recorder is the
// disabled state: every method is nil-safe and returns immediately, so
// instrumented hot paths cost one predicted branch when recording is off
// and results are bit-identical with and without a recorder attached.
package obs

import (
	"sort"
	"strconv"
	"time"

	"rtcadapt/internal/simtime"
)

// Kind names an event type. Kinds are stable strings so exported traces
// are self-describing and diffable across versions.
type Kind string

// The event taxonomy. Tracks group kinds by emitting subsystem; see the
// Track constants.
const (
	// KindEstimateUpdated: the bandwidth estimator produced a new target
	// (track cc). Attrs: target, usage, queue_delay_ms, loss, ack_rate.
	KindEstimateUpdated Kind = "EstimateUpdated"
	// KindDropDetected: the adaptive controller entered the drop state
	// (track controller). Attrs: target, fast, slow.
	KindDropDetected Kind = "DropDetected"
	// KindControllerAction: a controller mode transition or retarget
	// (track controller). Attrs: action, target.
	KindControllerAction Kind = "ControllerAction"
	// KindFrameEncoded: the encoder emitted a frame, including skips
	// (track codec). Attrs: index, type, bytes, qp, ssim, scale.
	KindFrameEncoded Kind = "FrameEncoded"
	// KindFrameSkipped: the controller decided to skip a frame (track
	// controller). Attrs: index, backlog_ms.
	KindFrameSkipped Kind = "FrameSkipped"
	// KindFrameDropped: the receiver gave up on a frame (track session).
	// Attrs: index.
	KindFrameDropped Kind = "FrameDropped"
	// KindPacketSent: the pacer released a packet to the link (track
	// session). Attrs: seq, bytes.
	KindPacketSent Kind = "PacketSent"
	// KindPacketLost: the link or pacer discarded a packet (tracks
	// netem, pacer). Attrs: bytes, reason (queue | loss | overflow).
	KindPacketLost Kind = "PacketLost"
	// KindPacketDelivered: the link handed a packet to the receiver
	// (track netem). Attrs: bytes.
	KindPacketDelivered Kind = "PacketDelivered"
	// KindQueueDepth: a periodic queue sample (track session). Attrs:
	// queue (pacer | link), bytes, delay_ms.
	KindQueueDepth Kind = "QueueDepth"
	// KindVBVState: the encoder's VBV buffer after a frame (track
	// codec). Attrs: fill_bits, size_bits.
	KindVBVState Kind = "VBVState"
	// KindKeyframeSuppressed: the controller refused a scene-cut
	// keyframe mid-drain (track controller). Attrs: index.
	KindKeyframeSuppressed Kind = "KeyframeSuppressed"
	// KindPLISent: the receiver requested a keyframe (track session).
	KindPLISent Kind = "PLISent"
	// KindFeedbackReceived: the sender folded in one feedback report
	// (track session). Attrs: acked, lost.
	KindFeedbackReceived Kind = "FeedbackReceived"
)

// Track names an emitting subsystem; exporters render one timeline track
// per value.
const (
	TrackCC         = "cc"
	TrackController = "controller"
	TrackCodec      = "codec"
	TrackPacer      = "pacer"
	TrackNetem      = "netem"
	TrackSession    = "session"
)

// Attr is one ordered key/value pair on an event. A value is either
// numeric (Num) or a string (Str, non-empty); exporters and the reader
// preserve attribute order, never map order.
type Attr struct {
	Key string
	Num float64
	Str string
}

// num builds a numeric attribute.
func num(key string, v float64) Attr { return Attr{Key: key, Num: v} }

// str builds a string attribute.
func str(key, v string) Attr { return Attr{Key: key, Str: v} }

// Value renders the attribute value as its canonical string form.
func (a Attr) Value() string {
	if a.Str != "" {
		return a.Str
	}
	return strconv.FormatFloat(a.Num, 'g', -1, 64)
}

// Event is one recorded occurrence.
type Event struct {
	// Seq is the emission sequence number, unique and increasing within
	// a recorder's lifetime (it keeps same-instant events ordered).
	Seq uint64
	// At is the virtual timestamp.
	At time.Duration
	// Track is the emitting subsystem.
	Track string
	// Kind is the event type.
	Kind Kind
	// Attrs are the ordered event attributes.
	Attrs []Attr
}

// Counter is one named counter or gauge value.
type Counter struct {
	Name  string
	Value float64
}

// Trace is an immutable snapshot of a recorder (or a trace file read back
// from disk): events in emission order plus final counter values.
type Trace struct {
	// Events are in Seq order.
	Events []Event
	// Counters are sorted by name.
	Counters []Counter
	// DroppedEvents counts ring-buffer evictions (oldest-first) that
	// occurred while recording.
	DroppedEvents int
}

// Instrumentable is implemented by components that accept a recorder
// after construction (e.g. controllers, which the caller builds before
// the session exists). session.New uses it to thread the configured
// recorder through.
type Instrumentable interface {
	SetRecorder(*Recorder)
}

// DefaultCapacity is the default ring-buffer size in events.
const DefaultCapacity = 1 << 16

// Recorder collects events into a bounded ring buffer and maintains the
// counter registry. The zero value is not useful — construct with
// NewRecorder — but a nil *Recorder is valid everywhere and records
// nothing. Not safe for concurrent use: like every simulator component it
// lives on a single scheduler goroutine.
type Recorder struct {
	clock simtime.Clock

	buf     []Event
	start   int // index of the oldest event
	n       int // live events in buf
	seq     uint64
	dropped int

	counters map[string]float64
}

// NewRecorder returns a recorder with the given ring capacity; capacity
// <= 0 takes DefaultCapacity. Bind a clock with SetClock (session.New
// does this) before events need timestamps; events emitted with no clock
// are stamped zero.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		buf:      make([]Event, 0, capacity),
		counters: make(map[string]float64),
	}
}

// SetClock binds the virtual clock used to stamp events.
func (r *Recorder) SetClock(c simtime.Clock) {
	if r == nil {
		return
	}
	r.clock = c
}

// Enabled reports whether events are being recorded; false for nil.
func (r *Recorder) Enabled() bool { return r != nil }

// Len returns the number of buffered events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Dropped returns how many events the full ring has evicted (oldest
// first) since construction or the last Reset; zero for nil. A nonzero
// count means the buffered window is truncated: exported traces carry the
// count (the dropped_events meta row) so the differ can distinguish a
// truncated recording from a genuine divergence.
func (r *Recorder) Dropped() int {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Emitted returns the total number of events ever emitted (buffered plus
// evicted) since construction or the last Reset; zero for nil.
func (r *Recorder) Emitted() int {
	if r == nil {
		return 0
	}
	return r.n + r.dropped
}

// Reset clears events, counters, the sequence counter, and the
// dropped-event count while keeping the ring's backing array and the
// bound clock, so one recorder can be reused across sequential sessions
// on a fleet shard without re-allocating its buffer. Nil-safe no-op.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	clear(r.buf) // release retained Attr slices
	r.buf = r.buf[:0]
	r.start = 0
	r.n = 0
	r.seq = 0
	r.dropped = 0
	clear(r.counters)
}

// Emit records one event with the given ordered attributes, stamping the
// current virtual time and the next sequence number. Typed emitters below
// are preferred at call sites; Emit is the extension point.
func (r *Recorder) Emit(track string, kind Kind, attrs ...Attr) {
	if r == nil {
		return
	}
	var at time.Duration
	if r.clock != nil {
		at = r.clock.Now()
	}
	ev := Event{Seq: r.seq, At: at, Track: track, Kind: kind, Attrs: attrs}
	r.seq++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
		r.n++
		return
	}
	// Ring full: overwrite the oldest.
	r.buf[r.start] = ev
	r.start = (r.start + 1) % len(r.buf)
	r.dropped++
}

// Count adds delta to the named counter, creating it at zero.
func (r *Recorder) Count(name string, delta float64) {
	if r == nil {
		return
	}
	r.counters[name] += delta
}

// SetGauge sets the named gauge to v (last write wins).
func (r *Recorder) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.counters[name] = v
}

// Counters returns the registry sorted by name.
func (r *Recorder) Counters() []Counter {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Counter, 0, len(names))
	for _, name := range names {
		out = append(out, Counter{Name: name, Value: r.counters[name]})
	}
	return out
}

// Snapshot copies the recorder's state into an immutable Trace. The
// recorder keeps recording afterwards.
func (r *Recorder) Snapshot() *Trace {
	if r == nil {
		return &Trace{}
	}
	events := make([]Event, 0, r.n)
	for i := 0; i < r.n; i++ {
		events = append(events, r.buf[(r.start+i)%len(r.buf)])
	}
	return &Trace{Events: events, Counters: r.Counters(), DroppedEvents: r.dropped}
}

// Typed emitters: the event vocabulary. Each is nil-safe and allocates
// nothing when the recorder is nil.

// EstimateUpdated records a new bandwidth-estimator target.
func (r *Recorder) EstimateUpdated(target float64, usage string, queueDelay time.Duration, lossFraction, ackRate float64) {
	if r == nil {
		return
	}
	r.Emit(TrackCC, KindEstimateUpdated,
		num("target", target),
		str("usage", usage),
		num("queue_delay_ms", float64(queueDelay)/float64(time.Millisecond)),
		num("loss", lossFraction),
		num("ack_rate", ackRate),
	)
}

// DropDetected records a drop-state entry with the fast/slow tracker
// values that triggered it.
func (r *Recorder) DropDetected(target, fast, slow float64) {
	if r == nil {
		return
	}
	r.Count("controller.drops", 1)
	r.Emit(TrackController, KindDropDetected,
		num("target", target), num("fast", fast), num("slow", slow))
}

// ControllerAction records a controller mode transition or retarget.
func (r *Recorder) ControllerAction(action string, target float64) {
	if r == nil {
		return
	}
	r.Emit(TrackController, KindControllerAction,
		str("action", action), num("target", target))
}

// FrameEncoded records one encoder output (including skips).
func (r *Recorder) FrameEncoded(index int, frameType string, sizeBytes, qp int, ssim, scale float64) {
	if r == nil {
		return
	}
	r.Count("codec.frames", 1)
	r.Emit(TrackCodec, KindFrameEncoded,
		num("index", float64(index)),
		str("type", frameType),
		num("bytes", float64(sizeBytes)),
		num("qp", float64(qp)),
		num("ssim", ssim),
		num("scale", scale),
	)
}

// FrameSkipped records a controller skip decision and the backlog that
// caused it.
func (r *Recorder) FrameSkipped(index int, backlog time.Duration) {
	if r == nil {
		return
	}
	r.Count("controller.skips", 1)
	r.Emit(TrackController, KindFrameSkipped,
		num("index", float64(index)),
		num("backlog_ms", float64(backlog)/float64(time.Millisecond)))
}

// FrameDropped records a frame the receiver gave up on.
func (r *Recorder) FrameDropped(index int) {
	if r == nil {
		return
	}
	r.Count("session.frames_dropped", 1)
	r.Emit(TrackSession, KindFrameDropped, num("index", float64(index)))
}

// PacketSent records a packet released by the pacer onto the wire.
func (r *Recorder) PacketSent(seq uint32, sizeBytes int) {
	if r == nil {
		return
	}
	r.Count("session.packets_sent", 1)
	r.Emit(TrackSession, KindPacketSent,
		num("seq", float64(seq)), num("bytes", float64(sizeBytes)))
}

// PacketLost records a discarded packet; track distinguishes the pacer
// overflow from link losses, reason the cause (queue | loss | overflow).
func (r *Recorder) PacketLost(track string, sizeBytes int, reason string) {
	if r == nil {
		return
	}
	r.Count(track+".lost_"+reason, 1)
	r.Emit(track, KindPacketLost,
		num("bytes", float64(sizeBytes)), str("reason", reason))
}

// PacketDelivered records a link delivery to the receiver.
func (r *Recorder) PacketDelivered(sizeBytes int) {
	if r == nil {
		return
	}
	r.Count("netem.delivered", 1)
	r.Emit(TrackNetem, KindPacketDelivered, num("bytes", float64(sizeBytes)))
}

// QueueDepth records a periodic queue sample; queue names which queue
// (pacer | link).
func (r *Recorder) QueueDepth(queue string, depthBytes int, delay time.Duration) {
	if r == nil {
		return
	}
	r.SetGauge(queueGauge(queue), float64(depthBytes))
	r.Emit(TrackSession, KindQueueDepth,
		str("queue", queue),
		num("bytes", float64(depthBytes)),
		num("delay_ms", float64(delay)/float64(time.Millisecond)))
}

// queueGauge names the depth gauge of queue. The session's two queues use
// constant keys, so a periodic sample does not build a string per call.
func queueGauge(queue string) string {
	switch queue {
	case "pacer":
		return "queue.pacer.bytes"
	case "link":
		return "queue.link.bytes"
	}
	return "queue." + queue + ".bytes"
}

// VBVState records the encoder's VBV buffer after a frame.
func (r *Recorder) VBVState(fillBits, sizeBits float64) {
	if r == nil {
		return
	}
	r.Emit(TrackCodec, KindVBVState,
		num("fill_bits", fillBits), num("size_bits", sizeBits))
}

// KeyframeSuppressed records a refused scene-cut keyframe.
func (r *Recorder) KeyframeSuppressed(index int) {
	if r == nil {
		return
	}
	r.Count("controller.keyframes_suppressed", 1)
	r.Emit(TrackController, KindKeyframeSuppressed, num("index", float64(index)))
}

// PLISent records a receiver keyframe request.
func (r *Recorder) PLISent() {
	if r == nil {
		return
	}
	r.Count("session.pli_sent", 1)
	r.Emit(TrackSession, KindPLISent)
}

// FeedbackReceived records the sender folding in one feedback report.
func (r *Recorder) FeedbackReceived(acked, lost int) {
	if r == nil {
		return
	}
	r.Emit(TrackSession, KindFeedbackReceived,
		num("acked", float64(acked)), num("lost", float64(lost)))
}
