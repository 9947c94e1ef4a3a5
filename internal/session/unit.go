package session

import (
	"rtcadapt/internal/metrics"
	"rtcadapt/internal/netem"
	"rtcadapt/internal/simtime"
)

// Unit is one session as a value-type unit of work: a global session
// index plus the full Config. The fleet runner hands Units to shards,
// each of which executes its batch sequentially on a shard-owned
// scheduler and Shell. A Unit carries no live state — everything mutable
// (the Session, its links, pools, ledger) lives in the Shell it runs in,
// or in a fresh one RunOn builds and releases once the unit's Summary has
// been extracted, which is what bounds a shard's live memory to a single
// session regardless of batch size.
//
// The Config's Controller is consumed by the run (controllers are
// stateful and must not be reused), so a Unit is itself single-use;
// fleet-scale callers derive a fresh Config per index from a pure build
// function.
type Unit struct {
	// Index is the unit's global session index; it keys the unit's slot
	// in merged fleet output and never depends on shard assignment.
	Index int
	// Cfg is the session configuration (see Config).
	Cfg Config
}

// Summary is the compact value-type result of one Unit: the aggregate
// Report plus the session counters, without the per-frame Records or the
// Timeline. At fleet scale the full ledger of every session cannot be
// retained (100k sessions x 900 frames would dwarf the shards
// themselves); Summary is the unit of merged fleet output.
type Summary struct {
	// Index echoes Unit.Index.
	Index int
	// Report aggregates the whole session (latency percentiles, SSIM,
	// freeze accounting).
	Report metrics.Report
	// LinkStats are the forward-link counters.
	LinkStats netem.Stats
	// PacerDropped counts sender-side pacer overflows.
	PacerDropped int
	// PLISent counts keyframe requests from the receiver.
	PLISent int
	// NacksSent and Retransmitted count loss-recovery activity.
	NacksSent, Retransmitted int
	// FECRepairs and FECRecovered count forward-error-correction
	// activity.
	FECRepairs, FECRecovered int
}

// Summarize compacts a full Result into a Summary for the given index.
func Summarize(index int, res Result) Summary {
	return Summary{
		Index:         index,
		Report:        res.Report,
		LinkStats:     res.LinkStats,
		PacerDropped:  res.PacerDropped,
		PLISent:       res.PLISent,
		NacksSent:     res.NacksSent,
		Retransmitted: res.Retransmitted,
		FECRepairs:    res.FECRepairs,
		FECRecovered:  res.FECRecovered,
	}
}

// RunOn executes the unit end to end on sched, which must be freshly
// constructed or freshly Reset (clock at zero, queue empty), in a session
// built for it alone. The scheduler's pools are reused across consecutive
// RunOn calls, and because Reset also restarts the event sequence counter,
// a unit's Summary is byte-identical whether it ran on a fresh scheduler
// or a recycled one — the contract the fleet's shard-count invariance
// test pins.
func (u Unit) RunOn(sched *simtime.Scheduler) Summary {
	return new(Shell).Run(sched, u)
}

// Shell is one session's memory, kept to run session after session in:
// the frame ledger and timeline, the packetizer's slabs, the PRNG sources
// of the video source, encoder and links, the link, pacer and feedback
// rings, the retransmission table and the estimator's windows. Each run
// rebuilds the next session inside it through the same re-initialiser New
// uses, so a run in a recycled Shell is byte-identical to a fresh Run;
// only the allocation differs. The zero value is ready to use.
//
// The next run overwrites the previous session's ledger, timeline and
// packets, so a Shell lends each run's Result rather than giving it:
// RunBorrowed's Records and Timeline alias the shell's memory until its
// next run, and a caller that keeps either past that copies what it
// keeps. Run, RunOn and the package-level Run are RunBorrowed on some
// shell; RunShared and New build fresh sessions. Not safe for concurrent
// use; a fleet shard or an experiment worker owns one.
type Shell struct{ s Session }

// RunBorrowed executes cfg on sched, which must be freshly constructed or
// freshly Reset, reusing the shell's memory, and returns the full Result.
// Its Records and Timeline stay valid only until the shell's next run. A
// config that sends into an external Config.ForwardLink runs in emptied
// memory: the link may still hold packets from the shell's previous run.
func (sh *Shell) RunBorrowed(sched *simtime.Scheduler, cfg Config) Result {
	if cfg.ForwardLink != nil {
		sh.s = Session{}
	}
	return sh.s.run(sched, cfg)
}

// Run executes u on sched like u.RunOn(sched), reusing the shell's memory,
// and keeps only its Summary. sched must be freshly constructed or freshly
// Reset.
func (sh *Shell) Run(sched *simtime.Scheduler, u Unit) Summary {
	return Summarize(u.Index, sh.RunBorrowed(sched, u.Cfg))
}
