package main

import (
	"fmt"
	"time"

	"rtcadapt/internal/netem"
	"rtcadapt/internal/obs"
	"rtcadapt/internal/session"
	"rtcadapt/internal/simtime"
)

// A traced round rebuilds each unit of the workload's sample three times
// — untraced, census and traced — checks that all three produce the same
// summaries, and replays the traced unit's captured layer inputs. Units
// run one after another on one goroutine, so each replay sees only the
// memory of its own unit.

// drainTime is how long session.Run and session.RunShared keep the
// scheduler running after the last capture.
const drainTime = 2 * time.Second

// Recorder ring sizes for the census pass: big enough that no event of a
// unit is evicted.
const (
	censusCapacity       = 1 << 16
	censusSharedCapacity = 1 << 18
)

// sentPkt is one packet the pacer released onto the forward link.
type sentPkt struct {
	at   time.Duration
	seq  uint32
	size int
}

// censusData is what the recorder reports about one unit.
type censusData struct {
	sent   []sentPkt
	frames int
	skips  int
}

// roundStats accumulates everything the traced rounds measure.
type roundStats struct {
	flows    int
	virtualS float64

	untracedNs, censusNs, tracedNs int64

	packets   int
	delivered int
	frames    int
	skips     int

	events   int64
	depthSum int64

	codecNs      int64
	packetizeNs  int64
	reassembleNs int64
	rtpPackets   int
	pacerNs      int64
	pacerPackets int
	pacerEvents  int
	netemNs      int64
	netemEvents  int
	metricsNs    int64

	checks checks
}

// checks counts correctness checks and keeps the first failures.
type checks struct {
	attempted int
	failed    int
	messages  []string
}

// expect records one check; a non-nil err fails it.
func (c *checks) expect(err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.messages) < 8 {
			c.messages = append(c.messages, err.Error())
		}
	}
}

// runPlain runs a unit through the public entry points: Unit.RunOn on a
// reset scheduler for a private link, session.RunShared for a shared one.
// A non-nil recorder is attached to every flow.
func runPlain(sched *simtime.Scheduler, spec unitSpec, rec *obs.Recorder) []session.Summary {
	rec.Reset()
	flows := append([]session.Config(nil), spec.flows...)
	for i := range flows {
		flows[i].Recorder = rec
	}
	if spec.shared == nil {
		sched.Reset()
		return []session.Summary{session.Unit{Index: spec.index, Cfg: flows[0]}.RunOn(sched)}
	}
	res := session.RunShared(*spec.shared, flows)
	sums := make([]session.Summary, len(res))
	for i := range res {
		sums[i] = session.Summarize(spec.index+i, res[i])
	}
	return sums
}

// readCensus extracts the replay inputs and counts from a recorder.
func readCensus(rec *obs.Recorder) (censusData, error) {
	if rec.Dropped() > 0 {
		return censusData{}, fmt.Errorf("census recorder evicted %d events", rec.Dropped())
	}
	var c censusData
	for _, ev := range rec.Snapshot().Events {
		switch ev.Kind {
		case obs.KindPacketSent:
			p := sentPkt{at: ev.At}
			for _, a := range ev.Attrs {
				switch a.Key {
				case "seq":
					p.seq = uint32(a.Num)
				case "bytes":
					p.size = int(a.Num)
				}
			}
			c.sent = append(c.sent, p)
		case obs.KindFrameEncoded:
			c.frames++
			for _, a := range ev.Attrs {
				if a.Key == "type" && a.Str == "skip" {
					c.skips++
				}
			}
		}
	}
	return c, nil
}

// tracedUnit is the traced pass's view of one unit.
type tracedUnit struct {
	sums     []session.Summary
	results  []session.Result
	captures []*flowCapture
	end      time.Duration
	events   int64
	depthSum int64
}

// runTraced rebuilds a unit with session.New on the benchmark's scheduler,
// with span-recording wrappers around every layer boundary the public API
// exposes, and drives it with Step. It matches session.Run and
// session.RunShared event for event: the forward link is built with the
// same configuration, and neither construction schedules anything.
func runTraced(sched *simtime.Scheduler, tr *tracer, build func() (unitSpec, error)) (tracedUnit, error) {
	tr.begin(spUnit)
	defer tr.end()

	tr.begin(spBuild)
	spec, err := build()
	tr.end()
	if err != nil {
		return tracedUnit{}, err
	}

	tr.begin(spSetup)
	sched.Reset()
	n := len(spec.flows)
	tu := tracedUnit{captures: make([]*flowCapture, n)}
	sessions := make([]*session.Session, n)
	var link *netem.Link
	if spec.shared != nil {
		link = newSharedLink(sched, *spec.shared)
	}
	for i, cfg := range spec.flows {
		tu.captures[i] = &flowCapture{}
		instrument(&cfg, tr, tu.captures[i])
		if spec.shared == nil {
			link = newForwardLink(sched, cfg)
		} else if cfg.SSRC == 0 {
			cfg.SSRC = uint32(i+1) * 1000
		}
		cfg.ForwardLink = link
		sessions[i] = session.New(sched, cfg)
		if e := cfg.StartAt + sessionDuration(cfg); e > tu.end {
			tu.end = e
		}
	}
	tu.end += drainTime
	deliver := sessions[0].Deliver
	if spec.shared != nil {
		deliver = session.NewSSRCDemux(sessions...).Deliver
	}
	link.SetReceiver(netem.ReceiverFunc(func(p netem.Packet, at time.Duration) {
		tr.begin(spRx)
		deliver(p, at)
		tr.end()
	}))
	tr.end()

	tr.begin(spRun)
	for {
		at, ok := sched.Peek()
		if !ok || at > tu.end {
			break
		}
		sched.Step()
		tu.events++
		tu.depthSum += int64(sched.Len())
	}
	sched.RunUntil(tu.end)
	tr.end()

	tr.begin(spResult)
	tu.sums = make([]session.Summary, n)
	tu.results = make([]session.Result, n)
	for i, s := range sessions {
		tu.results[i] = s.Result()
		tu.sums[i] = session.Summarize(spec.index+i, tu.results[i])
	}
	tr.end()
	return tu, nil
}

// sameSummaries reports the first summary where two passes disagree.
func sameSummaries(what string, want, got []session.Summary) error {
	if len(want) != len(got) {
		return fmt.Errorf("%s: %d summaries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if a, b := fmt.Sprintf("%+v", want[i]), fmt.Sprintf("%+v", got[i]); a != b {
			return fmt.Errorf("%s: session %d diverged from the untraced run", what, want[i].Index)
		}
	}
	return nil
}

// tracedRound runs one round over the workload's sample and adds its
// measurements to st. It returns the digest of the untraced summaries of
// the whole sample in index order.
func tracedRound(in *inputs, st *roundStats, tr *tracer, sched *simtime.Scheduler) (string, error) {
	var rec *obs.Recorder
	var all []session.Summary
	for u := 0; u < in.sample; u++ {
		spec, err := in.unit(u)
		if err != nil {
			return "", err
		}
		t0 := time.Now()
		plain := runPlain(sched, spec, nil)
		st.untracedNs += int64(time.Since(t0))
		all = append(all, plain...)

		if spec, err = in.unit(u); err != nil {
			return "", err
		}
		if rec == nil {
			capacity := censusCapacity
			if spec.shared != nil {
				capacity = censusSharedCapacity
			}
			rec = obs.NewRecorder(capacity)
		}
		t0 = time.Now()
		census := runPlain(sched, spec, rec)
		st.censusNs += int64(time.Since(t0))
		st.checks.expect(sameSummaries("census pass", plain, census))
		cd, err := readCensus(rec)
		st.checks.expect(err)

		t0 = time.Now()
		tu, err := runTraced(sched, tr, func() (unitSpec, error) { return in.unit(u) })
		st.tracedNs += int64(time.Since(t0))
		if err != nil {
			return "", err
		}
		st.checks.expect(sameSummaries("traced pass", plain, tu.sums))

		st.flows += len(spec.flows)
		st.virtualS += spec.virtualSeconds()
		st.packets += len(cd.sent)
		// Flows on a shared link all report the link's counters.
		st.delivered += plain[0].LinkStats.Delivered
		st.frames += cd.frames
		st.skips += cd.skips
		st.events += tu.events
		st.depthSum += tu.depthSum

		fresh, err := in.unit(u)
		if err != nil {
			return "", err
		}
		replayUnit(st, fresh, tu, plain, cd)
	}
	return summariesDigest(all), nil
}
