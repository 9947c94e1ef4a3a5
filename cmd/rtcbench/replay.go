package main

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"rtcadapt/internal/codec"
	"rtcadapt/internal/metrics"
	"rtcadapt/internal/netem"
	"rtcadapt/internal/pacer"
	"rtcadapt/internal/rtp"
	"rtcadapt/internal/session"
	"rtcadapt/internal/simtime"
	"rtcadapt/internal/units"
)

// Replays measure the layers the public API gives no boundary for. Each
// replay feeds the inputs the traced and census passes captured into a
// fresh instance of one layer, checks that the layer reproduces what the
// run saw, and times the same replay replayReps more times. A layer's
// cost in the ledger is its replay time scaled to the run's operation
// count.

// replayReps is how many timed repetitions each replay takes; the median
// is kept.
const replayReps = 3

// medianTime runs fn replayReps times and returns the median duration.
func medianTime(fn func()) int64 {
	var ds [replayReps]int64
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = int64(time.Since(t0))
	}
	slices.Sort(ds[:])
	return ds[replayReps/2]
}

// advance fires every event due by t and moves the clock to t, like
// RunUntil, and counts the fired events.
func advance(sched *simtime.Scheduler, t time.Duration) int {
	n := 0
	for {
		at, ok := sched.Peek()
		if !ok || at > t {
			break
		}
		sched.Step()
		n++
	}
	sched.RunUntil(t)
	return n
}

// replayUnit replays every layer of one traced unit. fresh is a newly built
// spec of the same unit (its links need fresh loss processes), plain the
// untraced summaries, cd the census of the unit.
func replayUnit(st *roundStats, fresh unitSpec, tu tracedUnit, plain []session.Summary, cd censusData) {
	var paced []sentPkt
	pacedAll := true
	for i, cfg := range fresh.flows {
		fc := tu.captures[i]

		ns, err := replayCodec(cfg, fc)
		st.checks.expect(err)
		st.codecNs += ns

		pz, ra, n, err := replayRTP(fc, cfg.MTU)
		st.checks.expect(err)
		st.packetizeNs += pz
		st.reassembleNs += ra
		st.rtpPackets += n

		ns, err = replayMetrics(tu.results[i])
		st.checks.expect(err)
		st.metricsNs += ns

		// The pacer sees retransmissions, FEC repairs, probes and audio
		// that the capture does not hold, so only flows without them
		// replay exactly.
		s := plain[i]
		if s.Retransmitted > 0 || s.FECRepairs > 0 || cfg.Probing || cfg.Audio || cfg.FECGroupSize > 0 {
			pacedAll = false
			continue
		}
		ns, events, out := replayPacer(cfg, fc, tu.end)
		st.pacerNs += ns
		st.pacerEvents += events
		st.pacerPackets += len(out)
		paced = append(paced, out...)
	}
	if pacedAll {
		st.checks.expect(samePackets(cd.sent, paced))
	}

	var link func(*simtime.Scheduler) *netem.Link
	if fresh.shared != nil {
		link = func(s *simtime.Scheduler) *netem.Link { return newSharedLink(s, *fresh.shared) }
	} else {
		link = func(s *simtime.Scheduler) *netem.Link { return newForwardLink(s, fresh.flows[0]) }
	}
	ns, events, err := replayNetem(link, cd.sent, tu.end, plain[0].LinkStats)
	st.checks.expect(err)
	st.netemNs += ns
	st.netemEvents += events
}

// replayCodec re-encodes the captured frames under the captured
// directives with an encoder configured as session.New configures it; the
// outputs must equal what the controller observed.
func replayCodec(cfg session.Config, fc *flowCapture) (int64, error) {
	encCfg := cfg.Encoder
	encCfg.TargetBitrate = initialRate(cfg)
	encCfg.FPS = cfg.FPS
	if encCfg.FPS == 0 {
		encCfg.FPS = 30
	}
	encCfg.Seed = cfg.Seed + 1
	if err := encCfg.Validate(); err != nil {
		return 0, err
	}
	var err error
	enc := codec.NewEncoder(encCfg)
	for k, f := range fc.frames {
		if got := enc.Encode(f, fc.dirs[k]); got != fc.encoded[k] {
			err = fmt.Errorf("codec replay: frame %d encoded differently", f.Index)
			break
		}
	}
	ns := medianTime(func() {
		enc := codec.NewEncoder(encCfg)
		for k, f := range fc.frames {
			enc.Encode(f, fc.dirs[k])
		}
	})
	return ns, err
}

// replayRTP packetizes the captured frames and reassembles every packet
// in order; every encoded frame must complete. It returns the packetize
// and reassemble times separately, since reassembly runs inside the
// session's receive span and packetization outside it.
func replayRTP(fc *flowCapture, mtu int) (packetize, reassemble int64, packets int, err error) {
	var pkts []*rtp.Packet
	frames := 0
	packetize = medianTime(func() {
		p := rtp.NewPacketizer(1, 96, mtu)
		pkts = pkts[:0]
		for _, ef := range fc.encoded {
			pkts = p.PacketizeAppend(pkts, ef)
		}
	})
	for _, ef := range fc.encoded {
		if ef.Type != codec.TypeSkip && ef.Bytes() > 0 {
			frames++
		}
	}
	completed := 0
	reassemble = medianTime(func() {
		r := rtp.NewReassembler()
		completed = 0
		for _, p := range pkts {
			if _, ok := r.Push(p, 0); ok {
				completed++
			}
		}
	})
	if completed != frames {
		err = fmt.Errorf("rtp replay: %d of %d frames completed", completed, frames)
	}
	return packetize, reassemble, len(pkts), err
}

// pacerInput is one replayed pacer call: a frame's packets at its
// encode-done time, or a rate update at a feedback time.
type pacerInput struct {
	at   time.Duration
	pkts []*rtp.Packet
	rate units.BitsPerSec
}

// replayPacer feeds the captured frames, packetized again, to a fresh
// pacer at their encode-done times, with the captured rate updates, and
// returns the packets it released.
func replayPacer(cfg session.Config, fc *flowCapture, end time.Duration) (int64, int, []sentPkt) {
	p := rtp.NewPacketizer(1, 96, cfg.MTU)
	var ins []pacerInput
	for k, ef := range fc.encoded {
		if pk := p.Packetize(ef); len(pk) > 0 {
			ins = append(ins, pacerInput{at: fc.encodedAt[k] + ef.EncodeTime, pkts: pk})
		}
	}
	for _, r := range fc.rates {
		ins = append(ins, pacerInput{at: r.at, rate: r.rate})
	}
	sort.SliceStable(ins, func(i, j int) bool { return ins[i].at < ins[j].at })

	run := func(count bool) (int, []sentPkt) {
		sched := simtime.NewScheduler()
		var out []sentPkt
		send := func(payload any, size int) {}
		if count {
			send = func(payload any, size int) {
				out = append(out, sentPkt{at: sched.Now(), seq: payload.(*rtp.Packet).Ext.TransportSeq, size: size})
			}
		}
		pc := pacer.New(sched, pacer.Config{Rate: initialRate(cfg), Burst: cfg.PacerBurst}, send)
		events := 0
		step := func(t time.Duration) {
			if count {
				events += advance(sched, t)
			} else {
				sched.RunUntil(t)
			}
		}
		for _, in := range ins {
			step(in.at)
			if in.pkts == nil {
				pc.SetRate(in.rate)
				continue
			}
			for _, pkt := range in.pkts {
				pc.Enqueue(pkt, pkt.WireSize())
			}
		}
		step(end)
		return events, out
	}
	events, out := run(true)
	ns := medianTime(func() { run(false) })
	return ns, events, out
}

// samePackets compares the census's send sequence with the replayed
// pacers' output. Several flows' pacers interleave on a shared link, so
// both sides are compared in (time, seq, size) order.
func samePackets(want, got []sentPkt) error {
	less := func(a, b sentPkt) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		if c := cmp.Compare(a.seq, b.seq); c != 0 {
			return c
		}
		return cmp.Compare(a.size, b.size)
	}
	w := slices.Clone(want)
	g := slices.Clone(got)
	slices.SortStableFunc(w, less)
	slices.SortStableFunc(g, less)
	if len(w) != len(g) {
		return fmt.Errorf("pacer replay: %d packets sent, the run sent %d", len(g), len(w))
	}
	for i := range w {
		if w[i] != g[i] {
			return fmt.Errorf("pacer replay: packet %d is %+v, the run sent %+v", i, g[i], w[i])
		}
	}
	return nil
}

// replayNetem sends the census's packet stream into a fresh link at the
// times the pacer released them. Stepping to each send time and then
// sending adds no events of its own, and the link must end with the run's
// counters.
func replayNetem(link func(*simtime.Scheduler) *netem.Link, sent []sentPkt, end time.Duration, want netem.Stats) (int64, int, error) {
	run := func(count bool) (int, netem.Stats) {
		sched := simtime.NewScheduler()
		l := link(sched)
		events := 0
		for _, p := range sent {
			if count {
				events += advance(sched, p.at)
			} else {
				sched.RunUntil(p.at)
			}
			l.Send(netem.Packet{Size: p.size})
		}
		if count {
			events += advance(sched, end)
		} else {
			sched.RunUntil(end)
		}
		return events, l.Stats()
	}
	events, got := run(true)
	var err error
	if got != want {
		err = fmt.Errorf("netem replay: link stats %+v, the run had %+v", got, want)
	}
	ns := medianTime(func() { run(false) })
	return ns, events, err
}

// replayMetrics re-summarizes the traced run's frame ledger; it must
// equal the run's report.
func replayMetrics(res session.Result) (int64, error) {
	var err error
	if metrics.SummarizeAll(res.Records, res.FrameInterval) != res.Report {
		err = fmt.Errorf("metrics replay: SummarizeAll differs from the session report")
	}
	ns := medianTime(func() { metrics.SummarizeAll(res.Records, res.FrameInterval) })
	return ns, err
}

// ladderEvents is how many scheduler operations one ladder repetition
// times.
const ladderEvents = 200_000

// schedulerLadder times a no-op AfterArg plus Step on a fresh scheduler
// whose queue holds depth events, with deadlines drawn log-uniformly
// between 1 µs and 100 ms ahead. It returns the median ns per event.
func schedulerLadder(depth int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	delays := make([]time.Duration, 4096)
	for i := range delays {
		delays[i] = time.Duration(math.Pow(10, 3+5*rng.Float64()))
	}
	noop := func(any) {}
	var ds [replayReps]int64
	for r := range ds {
		sched := simtime.NewScheduler()
		for i := 0; i < depth; i++ {
			sched.AfterArg(delays[i%len(delays)], noop, nil)
		}
		t0 := time.Now()
		for i := 0; i < ladderEvents; i++ {
			sched.AfterArg(delays[i%len(delays)], noop, nil)
			sched.Step()
		}
		ds[r] = int64(time.Since(t0))
	}
	slices.Sort(ds[:])
	return float64(ds[replayReps/2]) / ladderEvents
}
