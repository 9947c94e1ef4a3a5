package session

import (
	"slices"
	"time"

	"rtcadapt/internal/metrics"
	"rtcadapt/internal/netem"
	"rtcadapt/internal/simtime"
	"rtcadapt/internal/trace"
	"rtcadapt/internal/units"
)

// SharedConfig describes the common bottleneck of a multi-flow run.
type SharedConfig struct {
	// Trace drives the shared bottleneck capacity. Required.
	Trace *trace.Trace
	// PropDelay, QueueLimitBytes, LossProb configure the shared link
	// (defaults as in netem.Config).
	PropDelay       time.Duration
	QueueLimitBytes units.Bytes
	LossProb        float64
	// Seed seeds the shared link's PRNG.
	Seed int64
}

// RunShared executes several flows through one shared bottleneck link and
// returns their results in input order. Each flow's reverse (feedback)
// path remains private — feedback is small and never the bottleneck.
// Flows are assigned distinct SSRCs automatically if unset. It is a
// borrowing run on a shared shell nothing else holds, so the Results are
// the caller's to keep.
func RunShared(shared SharedConfig, flows []Config) []Result {
	return new(SharedShell).RunBorrowed(simtime.NewScheduler(), shared, flows)
}

// SharedShell is a shared-bottleneck run's memory, kept to run one
// multi-flow run after another in: the bottleneck link, one session per
// flow, the SSRC demux that routes the link's deliveries to them and the
// Summarizer their Reports are selected in. Each run re-initialises them
// in place through the same constructors RunShared used to call, so a run
// in a recycled SharedShell is event-for-event a fresh RunShared; only
// the allocation differs. The zero value is ready to use.
//
// Like a Shell, a SharedShell lends each run's Results: their Records
// and Timelines alias the flows' sessions until the shell's next run. Not
// safe for concurrent use; an experiment worker owns one.
type SharedShell struct {
	link     netem.Link
	sessions []*Session // one per flow of the largest run so far
	demux    SSRCDemux
	results  []Result
	summ     metrics.Summarizer
}

// RunBorrowed executes flows through one bottleneck built from shared on
// sched, which must be freshly constructed or freshly Reset, and returns
// their results in input order. The slice, and each Result's Records and
// Timeline, stay valid only until the shell's next run.
func (sh *SharedShell) RunBorrowed(sched *simtime.Scheduler, shared SharedConfig, flows []Config) []Result {
	if shared.Trace == nil {
		panic("session: SharedConfig.Trace is required")
	}
	sh.link.Init(sched, netem.Config{
		Trace:           shared.Trace,
		PropDelay:       shared.PropDelay,
		QueueLimitBytes: shared.QueueLimitBytes,
		LossProb:        shared.LossProb,
		Seed:            shared.Seed,
	})

	// Sessions are kept by pointer: each holds pointers to itself (its
	// pacer and link callbacks), so it must not move when the list grows.
	if n := len(flows) - len(sh.sessions); n > 0 {
		sh.sessions = slices.Grow(sh.sessions, n)
		for range n {
			sh.sessions = append(sh.sessions, new(Session))
		}
	}
	sessions := sh.sessions[:len(flows)]
	var end time.Duration
	for i, cfg := range flows {
		cfg.ForwardLink = &sh.link
		if cfg.SSRC == 0 {
			cfg.SSRC = uint32(i+1) * 1000
		}
		// The link was re-initialised above, so no packet of the previous
		// run is left to alias the session's rewound slabs.
		sessions[i].init(sched, cfg)
		if e := cfg.StartAt + sessions[i].cfg.Duration; e > end {
			end = e
		}
	}
	sh.demux.route(sessions)
	sh.link.SetReceiver(&sh.demux)

	end += 2 * time.Second
	for _, s := range sessions {
		s.reserveTimeline(end)
	}
	sched.RunUntil(end)

	// The flows summarize one after another, so one Summarizer serves
	// them all.
	sh.results = slices.Grow(sh.results[:0], len(sessions))
	for _, s := range sessions {
		s.summ = &sh.summ
		sh.results = append(sh.results, s.Result())
	}
	return sh.results
}
