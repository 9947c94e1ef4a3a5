// Package netem is the discrete-event network emulator: a bottleneck link
// with trace-driven time-varying capacity, a droptail byte queue, constant
// propagation delay plus optional random jitter, and random loss. Packet
// serialization integrates capacity across trace breakpoints exactly, so a
// capacity drop mid-queue produces the precise drain dynamics that cause
// the paper's latency spikes.
package netem

import (
	"fmt"
	"time"

	"rtcadapt/internal/obs"
	"rtcadapt/internal/simtime"
	"rtcadapt/internal/stats"
	"rtcadapt/internal/trace"
	"rtcadapt/internal/units"
)

// Packet is anything the link can carry: a size and an opaque payload.
type Packet struct {
	// Size is the on-wire size in bytes.
	Size int
	// Payload is the carried object (e.g. *rtp.Packet or *fb.Report).
	// Carry pointers: a pointer in an interface does not allocate, while
	// a struct value is boxed on every send.
	Payload any
	// EnqueuedAt is stamped by the link when the packet is accepted.
	EnqueuedAt time.Duration
}

// Receiver consumes packets on the far side of a link.
type Receiver interface {
	// Deliver is called at the packet's arrival time.
	Deliver(pkt Packet, at time.Duration)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(pkt Packet, at time.Duration)

// Deliver implements Receiver.
func (f ReceiverFunc) Deliver(pkt Packet, at time.Duration) { f(pkt, at) }

// Config configures a Link.
type Config struct {
	// Trace drives the link capacity. Required.
	Trace *trace.Trace
	// PropDelay is the one-way propagation delay. Zero means the
	// default of 25 ms; pass a negative value for a zero-delay link.
	PropDelay time.Duration
	// JitterAmp adds uniform random delay in [0, JitterAmp] per packet.
	// Zero disables jitter.
	JitterAmp time.Duration
	// LossProb is the independent per-packet loss probability.
	LossProb float64
	// BurstLoss, when non-nil, adds a Gilbert-Elliott two-state loss
	// process on top of LossProb (bursty losses as seen on wireless
	// links).
	BurstLoss *GilbertElliott
	// QueueLimitBytes bounds the droptail queue. Default 150 KB
	// (a typical shallow last-mile buffer: ~500 ms at 2.5 Mbps).
	QueueLimitBytes units.Bytes
	// Seed seeds the link's private PRNG (jitter, loss).
	Seed int64
	// Recorder receives PacketLost and PacketDelivered events (the
	// flight recorder's netem track). Nil disables recording at zero
	// cost.
	Recorder *obs.Recorder
}

// Stats are the link's lifetime counters.
type Stats struct {
	// Accepted counts packets admitted to the queue.
	Accepted int
	// Delivered counts packets handed to the receiver.
	Delivered int
	// DroppedQueue counts droptail discards.
	DroppedQueue int
	// DroppedLoss counts random wire losses.
	DroppedLoss int
	// BytesDelivered sums delivered wire bytes.
	BytesDelivered int64
}

// Link is a unidirectional bottleneck. Attach a Receiver before sending.
// Not safe for concurrent use; everything runs on the scheduler goroutine.
//
// The per-packet path is allocation-free in steady state: the droptail
// queue is a reusable ring buffer, and each packet in service rides a
// pooled inflight record dispatched through the scheduler's closure-free
// AtArg path instead of a pair of capturing closures.
type Link struct {
	sched *simtime.Scheduler
	cfg   Config
	rng   *stats.Rand
	recv  Receiver

	queue       packetRing
	queuedBytes int
	busy        bool
	stats       Stats
	free        []*inflight

	// Batched delivery (jitter-free links only). Arrivals wait in a ring
	// ordered by arrival instant; a single scheduled event — armed for
	// the head's instant — drains every arrival sharing that exact
	// instant, then re-arms for the next head. The scheduler holds one
	// pending delivery event per link instead of one per packet in
	// flight, without moving any delivery by even a nanosecond: a drain
	// never crosses a virtual-time boundary. Jittered links reorder
	// arrivals, so they keep the per-packet inflight path.
	batch    bool
	arrivals arrivalRing
	armed    bool
}

// inflight carries one packet from transmission start through delivery.
// Records are owned by a single link and recycled via its free list.
type inflight struct {
	l   *Link
	pkt Packet
}

// finishTxArg and deliverArg are the package-level dispatch functions for
// the two per-packet events; together with the pooled inflight record they
// replace the closures that used to allocate on every transmission.
// deliverBatchArg is the batched counterpart of deliverArg, dispatching on
// the link itself.
func finishTxArg(a any)     { f := a.(*inflight); f.l.finishTx(f) }
func deliverArg(a any)      { f := a.(*inflight); f.l.deliver(f) }
func deliverBatchArg(a any) { a.(*Link).deliverBatch() }

// acquireInflight pops a pooled record, minting one on first use.
func (l *Link) acquireInflight() *inflight {
	if n := len(l.free); n > 0 {
		f := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return f
	}
	return &inflight{l: l}
}

// releaseInflight zeroes the payload reference and recycles the record.
func (l *Link) releaseInflight(f *inflight) {
	f.pkt = Packet{}
	l.free = append(l.free, f)
}

// Validate checks the configuration for impossible parameterizations. It
// reports the first problem found. NewLink validates what it accepts;
// call Validate directly when building a Config that is stored or
// forwarded rather than passed straight to the constructor.
func (c *Config) Validate() error {
	if c.Trace == nil {
		return fmt.Errorf("netem: Config.Trace is required")
	}
	if c.LossProb < 0 || c.LossProb > 1 {
		return fmt.Errorf("netem: Config.LossProb %v outside [0, 1]", c.LossProb)
	}
	if c.JitterAmp < 0 {
		return fmt.Errorf("netem: negative Config.JitterAmp %v", c.JitterAmp)
	}
	if c.QueueLimitBytes < 0 {
		return fmt.Errorf("netem: negative Config.QueueLimitBytes %d", c.QueueLimitBytes)
	}
	return nil
}

// NewLink creates a link on the given scheduler. It panics on an invalid
// configuration (see Validate): a malformed link is a programming error,
// not a runtime condition.
func NewLink(sched *simtime.Scheduler, cfg Config) *Link {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.PropDelay == 0 {
		cfg.PropDelay = 25 * time.Millisecond
	} else if cfg.PropDelay < 0 {
		cfg.PropDelay = 0
	}
	if cfg.QueueLimitBytes == 0 {
		cfg.QueueLimitBytes = 150_000
	}
	return &Link{sched: sched, cfg: cfg, rng: stats.NewRand(cfg.Seed), batch: cfg.JitterAmp == 0}
}

// SetReceiver attaches the far-side consumer.
func (l *Link) SetReceiver(r Receiver) { l.recv = r }

// Stats returns a copy of the lifetime counters.
func (l *Link) Stats() Stats { return l.stats }

// QueueBytes returns the bytes currently queued (not counting the packet
// in service).
func (l *Link) QueueBytes() int { return l.queuedBytes }

// QueueDelay estimates the time a packet entering now would wait before
// transmission starts, given current capacity.
func (l *Link) QueueDelay() time.Duration {
	if l.queuedBytes == 0 {
		return 0
	}
	bps := l.rateAt(l.sched.Now())
	return bps.DurationToSend(units.Bytes(l.queuedBytes).Bits())
}

// rateAt reads the trace capacity with a defensive guard: dividing by a
// zero, negative, or NaN rate would silently produce +Inf queue delays and
// overflowed serialization deadlines. Trace constructors validate rates at
// load, so tripping this panic means a Trace was built by hand around the
// constructors.
func (l *Link) rateAt(at time.Duration) units.BitsPerSec {
	bps, _ := l.cfg.Trace.RateAt(at)
	if !(bps > 0) {
		panic(fmt.Sprintf("netem: trace %q yields non-positive capacity %v bits/s at t=%v; trace rates must be validated at load",
			l.cfg.Trace.Name(), float64(bps), at))
	}
	return bps
}

// Capacity returns the link's current capacity.
func (l *Link) Capacity() units.BitsPerSec {
	bps, _ := l.cfg.Trace.RateAt(l.sched.Now())
	return bps
}

// Send offers a packet to the link at the current virtual time. It returns
// false if the droptail queue rejected it.
func (l *Link) Send(pkt Packet) bool {
	if units.Bytes(l.queuedBytes+pkt.Size) > l.cfg.QueueLimitBytes {
		l.stats.DroppedQueue++
		l.cfg.Recorder.PacketLost(obs.TrackNetem, pkt.Size, "queue")
		return false
	}
	pkt.EnqueuedAt = l.sched.Now()
	l.queue.push(pkt)
	l.queuedBytes += pkt.Size
	l.stats.Accepted++
	if !l.busy {
		l.startTx()
	}
	return true
}

// startTx begins serializing the head-of-line packet.
func (l *Link) startTx() {
	if l.queue.len() == 0 {
		l.busy = false
		return
	}
	l.busy = true
	pkt := l.queue.pop()
	l.queuedBytes -= pkt.Size

	finish := l.serializeEnd(l.sched.Now(), float64(pkt.Size*8))
	f := l.acquireInflight()
	f.pkt = pkt
	l.sched.AtArg(finish, finishTxArg, f)
}

// serializeEnd integrates the capacity trace from start until bits are
// fully serialized.
func (l *Link) serializeEnd(start time.Duration, bits float64) time.Duration {
	cur := start
	remaining := bits
	for {
		rate, until := l.cfg.Trace.RateAt(cur)
		bps := float64(rate)
		if !(bps > 0) {
			// A zero/negative/NaN segment rate would make the division
			// below return +Inf or NaN and wedge the link forever at an
			// overflowed deadline. Trace constructors reject such rates;
			// reaching this means a Trace bypassed them.
			panic(fmt.Sprintf("netem: trace %q yields non-positive capacity %v bits/s at t=%v while serializing; trace rates must be validated at load",
				l.cfg.Trace.Name(), bps, cur))
		}
		if until == trace.Forever {
			return cur + time.Duration(remaining/bps*float64(time.Second))
		}
		segSec := (until - cur).Seconds()
		segBits := bps * segSec
		if remaining <= segBits {
			return cur + time.Duration(remaining/bps*float64(time.Second))
		}
		remaining -= segBits
		cur = until
	}
}

// finishTx completes service of the inflight packet: schedule its
// delivery (unless lost) and start the next transmission. The record is
// reused for the propagation leg on success and recycled on loss.
func (l *Link) finishTx(f *inflight) {
	lost := l.rng.Bool(l.cfg.LossProb)
	if l.cfg.BurstLoss != nil && l.cfg.BurstLoss.Lose(l.rng) {
		lost = true
	}
	if lost {
		l.stats.DroppedLoss++
		l.cfg.Recorder.PacketLost(obs.TrackNetem, f.pkt.Size, "loss")
		l.releaseInflight(f)
	} else if l.batch {
		at := l.sched.Now() + l.cfg.PropDelay
		l.arrivals.push(arrival{pkt: f.pkt, at: at})
		l.releaseInflight(f)
		if !l.armed {
			l.armed = true
			l.sched.AtArg(at, deliverBatchArg, l)
		}
	} else {
		delay := l.cfg.PropDelay
		if l.cfg.JitterAmp > 0 {
			delay += time.Duration(l.rng.Float64() * float64(l.cfg.JitterAmp))
		}
		l.sched.AfterArg(delay, deliverArg, f)
	}
	l.startTx()
}

// deliver hands the packet to the receiver at its arrival time and
// recycles the inflight record.
func (l *Link) deliver(f *inflight) {
	pkt := f.pkt
	l.releaseInflight(f)
	l.deliverPkt(pkt)
}

// deliverBatch fires at the head arrival's instant, drains the contiguous
// run of arrivals sharing that exact instant, and re-arms for the next
// head. The drain never delivers an arrival whose instant differs from
// the firing instant — batching coalesces scheduler events, never
// virtual-time behavior.
func (l *Link) deliverBatch() {
	now := l.sched.Now()
	for l.arrivals.len() > 0 && l.arrivals.peekAt() == now {
		l.deliverPkt(l.arrivals.pop().pkt)
	}
	if l.arrivals.len() > 0 {
		l.sched.AtArg(l.arrivals.peekAt(), deliverBatchArg, l)
	} else {
		l.armed = false
	}
}

// deliverPkt does the shared delivery bookkeeping at the current virtual
// time.
func (l *Link) deliverPkt(pkt Packet) {
	l.stats.Delivered++
	l.stats.BytesDelivered += int64(pkt.Size)
	l.cfg.Recorder.PacketDelivered(pkt.Size)
	if l.recv != nil {
		l.recv.Deliver(pkt, l.sched.Now())
	}
}
