// Package fleet runs populations of sessions — 100k to 1M on one box —
// deterministically, by sharding them over per-shard schedulers.
//
// The paper evaluates the adaptive encoder per-session; the production
// target is a service where results are distributions over a large
// session population (tail latency and tail SSIM under correlated
// bandwidth drops, in the style of Vidaptive's and Anableps' trace
// sweeps). The fleet runner is the substrate for that style of
// evaluation.
//
// # Shard ownership model
//
// A fleet of N sessions is partitioned into contiguous index ranges,
// one per shard. Each shard owns exactly one *simtime.Scheduler and
// (optionally) one *obs.Recorder, and runs its batch of sessions
// SEQUENTIALLY on that scheduler: session i finishes, the scheduler is
// Reset (clock back to zero, queue empty, event pools kept warm), and
// session i+1 starts. Shards run concurrently on the
// experiments.Runner worker pool, but no scheduler, recorder, or
// session state ever crosses a shard boundary. The shard-count
// invariance tests, the fleet-smoke 1-vs-8-shard cmp and CI's -race job
// police exactly this discipline.
//
// Because a session is a pure function of its Config (and the scheduler
// Reset contract restarts the event sequence counter), the Summary of
// session i is byte-identical whether it ran on shard 0 of 1 or shard 7
// of 8, on 1 worker or 16. Merging per-shard results in canonical index
// order therefore yields byte-identical fleet output for any
// shard/worker count — the same contract the experiments runner pins
// for table cells, extended to whole populations.
//
// # Memory bound
//
// A shard retains one session.Shell — one session's memory, rebuilt in
// place for each session it runs — plus one compact session.Summary per
// finished session. The per-frame Records and Timeline of each session
// are condensed into the Summary before the next session overwrites them,
// so peak memory is O(shards + sessions·sizeof(Summary)), not
// O(sessions·frames), and a session's setup (ledger, packet slabs, PRNG
// sources, rings, windows) is allocated once per shard rather than once
// per session. The shell dies when Run returns.
package fleet

import (
	"fmt"

	"rtcadapt/internal/experiments"
	"rtcadapt/internal/obs"
	"rtcadapt/internal/session"
	"rtcadapt/internal/simtime"
)

// Config describes a fleet run.
type Config struct {
	// Sessions is the population size. Required.
	Sessions int
	// Shards is the number of independent scheduler shards. Zero means
	// one; values above Sessions are clamped. Output is byte-identical
	// for any value.
	Shards int
	// Workers bounds the worker pool that runs shards concurrently.
	// Zero means GOMAXPROCS. Output is byte-identical for any value.
	Workers int
	// Seed is the fleet-level seed; session i runs with seed
	// Seed+int64(i) so populations with different fleet seeds are
	// disjoint in behaviour but any one session is reproducible from
	// (Seed, index) alone.
	Seed int64
	// Build derives session i's configuration. It must be a pure
	// function of (index, seed) — the shard-count invariance contract
	// rests on it — and must return a fresh Config each call
	// (controllers are stateful and single-use). Required.
	Build func(index int, seed int64) session.Config
	// Record attaches each shard's flight recorder to its sessions.
	// The recorder is reset between sessions; only the emitted/dropped
	// event totals survive into the Result (per-session traces at
	// fleet scale would defeat the memory bound).
	Record bool
	// EventCapacity sizes each shard's recorder ring when Record is
	// set. Zero means 4096.
	EventCapacity int
	// Progress, when non-nil, is called after each finished shard in
	// completion order (see experiments.Runner.Progress).
	Progress func(done, total int, label string)
}

// normalize validates cfg and resolves defaults.
func (c *Config) normalize() error {
	if c.Sessions <= 0 {
		return fmt.Errorf("fleet: Sessions must be positive, got %d", c.Sessions)
	}
	if c.Build == nil {
		return fmt.Errorf("fleet: Build is required")
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Shards > c.Sessions {
		c.Shards = c.Sessions
	}
	if c.EventCapacity <= 0 {
		c.EventCapacity = 4096
	}
	return nil
}

// Result is the merged output of a fleet run. Sessions is in canonical
// index order regardless of shard or worker count.
type Result struct {
	// Shards echoes the effective shard count (informational; no field
	// derived from it may influence Sessions).
	Shards int
	// Sessions holds one compact Summary per session, index-ordered.
	Sessions []session.Summary
	// RecordedEvents and DroppedEvents total the flight-recorder
	// activity across every session (zero unless Config.Record).
	// Both are sums over per-session counts, so they are invariant
	// under resharding.
	RecordedEvents, DroppedEvents int
}

// shard owns one scheduler, one optional recorder, and a contiguous
// batch [lo, hi) of session indices. All mutable state hangs off the
// shard; the only things it shares with other shards are the immutable
// Config and the output slots keyed by shard index.
type shard struct {
	cfg      Config
	lo, hi   int
	sched    *simtime.Scheduler
	rec      *obs.Recorder
	sums     []session.Summary
	recorded int
	dropped  int
	// done marks the shard finished; the streaming writer uses it to
	// flush completed shards in index order (guarded by its own mutex).
	done bool
}

// run executes the shard's batch sequentially and fills sums in index
// order. The scheduler and recorder are Reset between sessions: clocks
// and sequence counters restart from zero, so each session observes a
// world indistinguishable from a freshly constructed scheduler while the
// event pools stay warm across the whole batch. Every session runs in one
// session.Shell, rebuilt in place for each: the ledger, packet slabs, PRNG
// sources, rings and windows are allocated once per shard, not once per
// session. The shell lives only as long as this call.
func (sh *shard) run() {
	sh.sums = make([]session.Summary, 0, sh.hi-sh.lo)
	var shell session.Shell
	for i := sh.lo; i < sh.hi; i++ {
		scfg := sh.cfg.Build(i, sh.cfg.Seed+int64(i))
		if sh.cfg.Record {
			scfg.Recorder = sh.rec
		}
		sh.sched.Reset()
		sh.rec.Reset()
		sh.sums = append(sh.sums, shell.Run(sh.sched, session.Unit{Index: i, Cfg: scfg}))
		sh.recorded += sh.rec.Emitted()
		sh.dropped += sh.rec.Dropped()
	}
}

// makeShards partitions a normalized Config's population into contiguous
// per-shard index ranges, each with its own scheduler (and recorder when
// Record is set).
func makeShards(cfg Config) []*shard {
	shards := make([]*shard, cfg.Shards)
	base, rem := cfg.Sessions/cfg.Shards, cfg.Sessions%cfg.Shards
	lo := 0
	for k := range shards {
		size := base
		if k < rem {
			size++
		}
		var rec *obs.Recorder
		if cfg.Record {
			rec = obs.NewRecorder(cfg.EventCapacity)
		}
		shards[k] = &shard{
			cfg:   cfg,
			lo:    lo,
			hi:    lo + size,
			sched: simtime.NewScheduler(),
			rec:   rec,
		}
		lo += size
	}
	return shards
}

// shardLabel names a shard for progress reporting.
func shardLabel(shards []*shard) func(int) string {
	return func(k int) string {
		return fmt.Sprintf("shard %d (%d sessions)", k, shards[k].hi-shards[k].lo)
	}
}

// Run executes the fleet and merges per-shard results in canonical
// shard order (= session index order, since shards hold contiguous
// ranges). The merge loop runs after every shard finished, so the
// Result bytes depend only on Config, never on scheduling.
func Run(cfg Config) (Result, error) {
	if err := cfg.normalize(); err != nil {
		return Result{}, err
	}
	shards := makeShards(cfg)

	runner := &experiments.Runner{Workers: cfg.Workers, Progress: cfg.Progress}
	experiments.Map(runner, len(shards), shardLabel(shards), func(k int) struct{} {
		shards[k].run()
		return struct{}{}
	})

	res := Result{
		Shards:   cfg.Shards,
		Sessions: make([]session.Summary, 0, cfg.Sessions),
	}
	for _, sh := range shards {
		res.Sessions = append(res.Sessions, sh.sums...)
		res.RecordedEvents += sh.recorded
		res.DroppedEvents += sh.dropped
	}
	return res, nil
}
