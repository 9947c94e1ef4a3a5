package session

import (
	"time"

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
// Flows are assigned distinct SSRCs automatically if unset.
func RunShared(shared SharedConfig, flows []Config) []Result {
	if shared.Trace == nil {
		panic("session: SharedConfig.Trace is required")
	}
	sched := simtime.NewScheduler()
	link := netem.NewLink(sched, netem.Config{
		Trace:           shared.Trace,
		PropDelay:       shared.PropDelay,
		QueueLimitBytes: shared.QueueLimitBytes,
		LossProb:        shared.LossProb,
		Seed:            shared.Seed,
	})

	sessions := make([]*Session, len(flows))
	var end time.Duration
	for i, cfg := range flows {
		cfg.ForwardLink = link
		if cfg.SSRC == 0 {
			cfg.SSRC = uint32(i+1) * 1000
		}
		sessions[i] = New(sched, cfg)
		if e := cfg.StartAt + sessions[i].cfg.Duration; e > end {
			end = e
		}
	}
	link.SetReceiver(NewSSRCDemux(sessions...))

	end += 2 * time.Second
	for _, s := range sessions {
		s.reserveTimeline(end)
	}
	sched.RunUntil(end)

	results := make([]Result, len(sessions))
	for i, s := range sessions {
		results[i] = s.Result()
	}
	return results
}
