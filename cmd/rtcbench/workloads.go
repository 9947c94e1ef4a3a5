package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"time"

	"rtcadapt/internal/cc"
	"rtcadapt/internal/core"
	"rtcadapt/internal/experiments"
	"rtcadapt/internal/fleet"
	"rtcadapt/internal/scenario"
	"rtcadapt/internal/session"
	"rtcadapt/internal/video"
)

// workload is one named input set. build constructs the inputs for a seed;
// its wall time, plus one warm-up unit, is the workload's setup time.
type workload struct {
	name  string
	why   string
	build func(seed int64) (*inputs, error)
}

// inputs is a workload made concrete for one seed.
type inputs struct {
	// virtualS is the simulated session time one batch covers (zero for
	// the figure suite, whose sessions are internal to the experiments).
	virtualS float64
	// warmup runs one small unit of the workload's own work.
	warmup func() error
	// batch runs one fixed-work batch; only the figure suite reports to
	// the hooks.
	batch func(h hooks) (batchOut, error)
	// sample is the number of units one traced round rebuilds, and unit
	// returns the sessions of unit u with fresh controllers.
	sample int
	unit   func(u int) (unitSpec, error)
	// batchSize keys the golden digests together with sample: goldens
	// hold only for the default sizes.
	batchSize int
}

// hooks observe a figure-suite batch from outside: progress reports each
// finished experiment cell, and span brackets one experiment.
type hooks struct {
	progress func(done, total int, label string)
	span     func(name string) (end func())
}

// begin opens an experiment span and returns its end, a no-op without a
// span hook.
func (h hooks) begin(name string) func() {
	if h.span == nil {
		return func() {}
	}
	return h.span(name)
}

// batchOut is what a batch returns: a digest of its output and the result
// values, which stay referenced until the live heap has been measured.
type batchOut struct {
	digest string
	keep   any
}

// unitSpec is one unit of simulation work: a single session on a private
// link, or several flows sharing one bottleneck.
type unitSpec struct {
	// index is the summary index of the first flow.
	index  int
	flows  []session.Config
	shared *session.SharedConfig
}

// virtualSeconds sums the configured session durations of the unit.
func (u unitSpec) virtualSeconds() float64 {
	var s float64
	for _, f := range u.flows {
		s += sessionDuration(f).Seconds()
	}
	return s
}

// sessionDuration is the capture span session.New applies to cfg.
func sessionDuration(cfg session.Config) time.Duration {
	if cfg.Duration == 0 {
		return 30 * time.Second
	}
	return cfg.Duration
}

// Sizes of the default workloads. A batch is fixed work: a change that
// makes the simulator faster finishes the same batch sooner and runs more
// batches in the same measuring time.
const (
	dropSessions    = 128
	dropSample      = 16
	dropWarmup      = 8
	dropDuration    = 30 * time.Second
	mixedSessions   = 1500
	mixedSample     = 96
	mixedWarmup     = 64
	mixedDuration   = 2 * time.Second
	sharedRuns      = 24
	sharedSample    = 2
	sharedFlows     = 16
	sharedStagger   = 100 * time.Millisecond
	sharedDuration  = 30 * time.Second
	suiteSeedCount  = 5
	figureReference = 48
)

// workloads returns the benchmark's workloads in canonical order.
func workloads() []workload {
	return []workload{
		sessionDropWorkload(dropSessions, dropSample),
		fleetMixedWorkload(mixedSessions, mixedSample),
		sharedWorkload(sharedRuns, sharedSample),
		figureSuiteWorkload(suiteIDs(), figureReference),
	}
}

// findWorkload looks a workload up by name.
func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// sessionDropWorkload is the paper's Figure 1 session in steady state:
// the standard 2.5 -> 0.8 Mbps drop at 10 s and 30 s sessions, so the
// per-packet and per-frame hot loop dominates.
func sessionDropWorkload(sessions, sample int) workload {
	return workload{
		name: "session-drop",
		why:  "30 s Figure 1 drop sessions: the per-packet and per-frame hot loop dominates and setup is about 2% of the time",
		build: func(seed int64) (*inputs, error) {
			std, err := scenario.Preset("standard")
			if err != nil {
				return nil, err
			}
			build, err := fleet.PopulationBuild(scenario.Population{Name: "standard", Members: []scenario.Scenario{std}}, dropDuration)
			if err != nil {
				return nil, err
			}
			return fleetInputs(build, seed, sessions, sample, dropWarmup, dropDuration), nil
		},
	}
}

// fleetMixedWorkload is the rtcfleet path: short sessions over the mixed
// drop/LTE/WiFi population with loss and NACK, so setup, drain and
// summarizing are a large share of every session.
func fleetMixedWorkload(sessions, sample int) workload {
	return workload{
		name: "fleet-mixed",
		why:  "rtcfleet's mixed population of 2 s sessions: setup and teardown are a large share of each session, and loss and NACK are on",
		build: func(seed int64) (*inputs, error) {
			build, err := fleet.ScenarioBuild("mixed", mixedDuration)
			if err != nil {
				return nil, err
			}
			return fleetInputs(build, seed, sessions, sample, mixedWarmup, mixedDuration), nil
		},
	}
}

// fleetInputs wires a fleet population into a workload: a batch is one
// fleet.Run over the population on one shard, a unit is one session of it.
func fleetInputs(build func(int, int64) session.Config, seed int64, sessions, sample, warmup int, dur time.Duration) *inputs {
	run := func(n int) (fleet.Result, error) {
		return fleet.Run(fleet.Config{Sessions: n, Shards: 1, Workers: 1, Seed: seed, Build: build})
	}
	return &inputs{
		virtualS: float64(sessions) * dur.Seconds(),
		warmup: func() error {
			_, err := run(warmup)
			return err
		},
		batch: func(hooks) (batchOut, error) {
			res, err := run(sessions)
			if err != nil {
				return batchOut{}, err
			}
			return batchOut{digest: summariesDigest(res.Sessions), keep: res}, nil
		},
		sample: sample,
		unit: func(u int) (unitSpec, error) {
			return unitSpec{index: u, flows: []session.Config{build(u, seed+int64(u))}}, nil
		},
		batchSize: sessions,
	}
}

// sharedWorkload runs 16 adaptive flows through one bottleneck that drops
// from 24 to 8 Mbps: the only workload with a deep event queue and a
// shared bottleneck queue.
func sharedWorkload(runs, sample int) workload {
	return workload{
		name: "shared-16flow",
		why:  "16 staggered flows on one 24 -> 8 Mbps bottleneck: the deepest event queue and a shared link queue",
		build: func(seed int64) (*inputs, error) {
			sc := scenario.StepDrop(24e6, 8e6, 10*time.Second, 20*time.Second)
			path, err := sc.Compile(scenario.CompileConfig{Seed: seed})
			if err != nil {
				return nil, err
			}
			unit := func(u int) (unitSpec, error) { return sharedUnit(path, seed, u) }
			return &inputs{
				virtualS: float64(runs*sharedFlows) * sharedDuration.Seconds(),
				warmup: func() error {
					u, err := unit(0)
					if err != nil {
						return err
					}
					session.RunShared(*u.shared, u.flows)
					return nil
				},
				batch: func(hooks) (batchOut, error) {
					all := make([][]session.Result, 0, runs)
					var sums []session.Summary
					for r := 0; r < runs; r++ {
						u, err := unit(r)
						if err != nil {
							return batchOut{}, err
						}
						res := session.RunShared(*u.shared, u.flows)
						for i := range res {
							sums = append(sums, session.Summarize(u.index+i, res[i]))
						}
						all = append(all, res)
					}
					return batchOut{digest: summariesDigest(sums), keep: all}, nil
				},
				sample:    sample,
				unit:      unit,
				batchSize: runs,
			}, nil
		},
	}
}

// sharedUnit builds run r of the shared workload: 16 adaptive flows,
// alternating talking-head and gaming content, started 100 ms apart.
func sharedUnit(path scenario.Path, seed int64, r int) (unitSpec, error) {
	base := seed*1_000_000 + int64(r)*100
	flows := make([]session.Config, sharedFlows)
	for i := range flows {
		content := video.TalkingHead
		if i%2 == 1 {
			content = video.Gaming
		}
		cfg := session.Config{
			Duration:    sharedDuration,
			StartAt:     time.Duration(i) * sharedStagger,
			Seed:        base + int64(i),
			Content:     content,
			InitialRate: 1e6,
			Trace:       path.Trace,
			Controller:  core.NewAdaptive(core.AdaptiveConfig{}),
		}
		if err := cfg.Validate(); err != nil {
			return unitSpec{}, err
		}
		flows[i] = cfg
	}
	shared := &session.SharedConfig{
		Trace:           path.Trace,
		PropDelay:       path.PropDelay,
		QueueLimitBytes: path.Queue,
		LossProb:        path.Loss,
		Seed:            base,
	}
	return unitSpec{index: r * sharedFlows, flows: flows, shared: shared}, nil
}

// suiteIDs lists the experiments of `benchdrop -exp all` in its order.
func suiteIDs() []string {
	return []string{"figure1", "table1", "table2", "figure2", "figure3", "table3",
		"figure4", "figure5", "figure6", "figure7", "figure8", "figure9", "figure10"}
}

// renderExperiment runs one experiment of the paper suite and renders it
// the way `benchdrop -exp all` prints it: Figure 1 at seed, the rest
// averaged over seeds.
func renderExperiment(r *experiments.Runner, id string, seed int64, seeds []int64) (string, error) {
	switch id {
	case "figure1":
		return experiments.RenderFigure1(r.Figure1(seed)), nil
	case "table1":
		return experiments.RenderTable1(r.Table1(seeds)), nil
	case "table2":
		return experiments.RenderTable2(r.Table2(seeds)), nil
	case "table3":
		return experiments.RenderTable3(r.Table3(seeds)), nil
	case "figure2":
		return experiments.RenderFigure2(r.Figure2(seeds)), nil
	case "figure3":
		return experiments.RenderFigure3(r.Figure3(seeds)), nil
	case "figure4":
		return experiments.RenderFigure4(r.Figure4(seeds)), nil
	case "figure5":
		return experiments.RenderFigure5(r.Figure5(seeds)), nil
	case "figure6":
		return experiments.RenderFigure6(r.Figure6(seeds)), nil
	case "figure7":
		return experiments.RenderFigure7(r.Figure7(seeds)), nil
	case "figure8":
		return experiments.RenderFigure8(r.Figure8(seeds)), nil
	case "figure9":
		return experiments.RenderFigure9(r.Figure9(seeds)), nil
	case "figure10":
		return experiments.RenderFigure10(r.Figure10(seeds)), nil
	}
	return "", fmt.Errorf("unknown experiment %q", id)
}

// figureSuiteWorkload regenerates the paper's tables and figures at seeds
// seed..seed+4. Its traced rounds rebuild the suite's most common cell
// shape, the Table 1 drop matrix under every controller kind, because the
// experiments build their sessions internally.
func figureSuiteWorkload(ids []string, reference int) workload {
	return workload{
		name: "figure-suite",
		why:  "regenerating the paper is the product; the only workload with FEC, probing, SFU, every estimator and the resolution ladder",
		build: func(seed int64) (*inputs, error) {
			for _, id := range ids {
				if !slices.Contains(suiteIDs(), id) {
					return nil, fmt.Errorf("unknown experiment %q", id)
				}
			}
			if cells := len(experiments.DropMatrix()) * len(experiments.Kinds()); reference > cells {
				return nil, fmt.Errorf("reference sample of %d cells exceeds the %d-cell drop matrix", reference, cells)
			}
			seeds := make([]int64, suiteSeedCount)
			for i := range seeds {
				seeds[i] = seed + int64(i)
			}
			return &inputs{
				warmup: func() error {
					_, err := renderExperiment(&experiments.Runner{Workers: 1}, "figure3", seed, seeds)
					return err
				},
				batch: func(h hooks) (batchOut, error) {
					r := &experiments.Runner{Workers: 1, Progress: h.progress}
					var out bytes.Buffer
					for _, id := range ids {
						end := h.begin(id)
						text, err := renderExperiment(r, id, seed, seeds)
						end()
						if err != nil {
							return batchOut{}, err
						}
						out.WriteString(text)
						out.WriteByte('\n')
					}
					return batchOut{digest: bytesDigest(out.Bytes()), keep: out.Bytes()}, nil
				},
				sample: reference,
				unit: func(u int) (unitSpec, error) {
					cfg, err := referenceCell(seed, u)
					return unitSpec{index: u, flows: []session.Config{cfg}}, err
				},
				batchSize: len(ids),
			}, nil
		},
	}
}

// referenceCell builds cell u of the Table 1 drop matrix crossed with
// every controller kind, at one seed, with a fresh controller.
func referenceCell(seed int64, u int) (session.Config, error) {
	kinds := experiments.Kinds()
	sc, kind := experiments.DropMatrix()[u/len(kinds)], kinds[u%len(kinds)]
	drop := scenario.StepDrop(sc.Before, sc.After, sc.DropAt, 20*time.Second)
	path, err := drop.Compile(scenario.CompileConfig{Seed: seed})
	if err != nil {
		return session.Config{}, err
	}
	cfg := session.Config{
		Duration:    sc.DropAt + 20*time.Second,
		Seed:        seed,
		Content:     sc.Content,
		Trace:       path.Trace,
		InitialRate: 1e6,
	}
	switch kind {
	case experiments.KindNative:
		cfg.Controller = core.NewNativeRC()
	case experiments.KindResetOnly:
		cfg.Controller = core.NewResetOnly()
	case experiments.KindAdaptive:
		cfg.Controller = core.NewAdaptive(core.AdaptiveConfig{})
	case experiments.KindAdaptiveOracle:
		cfg.Controller = core.NewAdaptive(core.AdaptiveConfig{})
		cfg.NewEstimator = func(capacity cc.CapacityFunc) cc.Estimator { return cc.NewOracle(capacity, 0.95) }
	default:
		return session.Config{}, fmt.Errorf("unknown controller kind %q", kind)
	}
	return cfg, cfg.Validate()
}

// summariesDigest hashes session summaries in slice order. %+v prints
// every field losslessly: durations as exact nanosecond strings and floats
// in shortest round-trip form.
func summariesDigest(sums []session.Summary) string {
	var b bytes.Buffer
	for i := range sums {
		fmt.Fprintf(&b, "%+v\n", sums[i])
	}
	return bytesDigest(b.Bytes())
}

// bytesDigest hashes raw output bytes.
func bytesDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
