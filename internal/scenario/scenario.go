// Package scenario is the declarative scenario corpus: named network
// scenarios described as ordered phases of path characteristics
// (duration, capacity, burst allowance, loss, RTT), parsed from YAML or
// JSON files on stdlib only, validated, and compiled down to the
// trace/netem configuration the session harness consumes.
//
// A scenario's capacity process comes from exactly one of three sources:
//
//   - Phases: a piecewise-constant phase list (the vnet
//     path_characteristic_presets shape) — fully deterministic;
//   - Model: a seeded synthetic generator (lte, wifi, randomwalk)
//     delegating to the internal/trace capacity models;
//   - TraceCSV: an externally captured "seconds,bps" capacity trace.
//
// Compile resolves the scenario against a seed and duration into a Path:
// an immutable *trace.Trace plus the scalar link impairments (loss
// probability, burst-loss rate, propagation delay, queue bound) that
// session.Config.ApplyPath lowers onto a session. Scenarios are the
// repository's only description of a network path: every experiment,
// command and fleet population builds its path here. The named presets
// in presets.go reproduce the step-drop, staircase and square-wave
// traces the experiments were first written against byte-identically
// (pinned by equivalence tests against test-only reference
// constructors), and the fleet populations re-express cmd/rtcfleet's
// scenario mix declaratively.
//
// The current emulator models loss and RTT as path constants: phases may
// declare them (the file format is forward-compatible), but Validate
// rejects a scenario whose phases disagree, rather than silently using
// one of the values.
package scenario

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"rtcadapt/internal/trace"
	"rtcadapt/internal/units"
)

// Phase is one path-characteristic segment: for Duration the bottleneck
// runs at Capacity with the given burst allowance and impairments.
type Phase struct {
	// Duration is the phase length. Required, positive.
	Duration time.Duration
	// Capacity is the bottleneck rate during the phase. Required,
	// positive and finite.
	Capacity units.BitsPerSec
	// MaxBurst is the burst allowance in bits (the vnet token-bucket
	// burst). It maps onto the droptail queue bound: the compiled path
	// uses the largest phase burst as its queue limit unless the
	// scenario sets Queue explicitly. Zero means unset.
	MaxBurst units.Bits
	// Loss is the random per-packet loss probability during the phase.
	// All phases that set it must agree (see the package comment).
	Loss float64
	// RTT is the round-trip propagation delay during the phase. All
	// phases that set it must agree.
	RTT time.Duration
}

// Model selects a seeded synthetic capacity generator.
type Model struct {
	// Kind is the generator: "lte", "wifi", or "randomwalk".
	Kind string
	// Mean is the long-run mean capacity; zero uses the generator's
	// default (3 Mbps for lte, 8 Mbps for wifi).
	Mean units.BitsPerSec
	// Duration is the generated span; zero uses the duration passed to
	// Compile.
	Duration time.Duration
	// Step is the sampling granularity; zero uses the generator
	// default.
	Step time.Duration
	// FadeProb is the lte generator's per-step probability of entering
	// a deep fade; zero uses the generator default (0.01). Only the lte
	// kind accepts it.
	FadeProb float64
	// Start, Lo, Hi parameterize the randomwalk generator (start level
	// and clamp bounds); zeros use 2.5 Mbps in [0.5, 5] Mbps.
	Start, Lo, Hi units.BitsPerSec
}

// modelKinds are the accepted Model.Kind values.
func modelKinds() []string { return []string{"lte", "wifi", "randomwalk"} }

// Scenario is one declarative network scenario. Exactly one of Phases,
// Model, and TraceCSV must be set. The zero value is invalid; build
// scenarios with New, a preset, Parse, or a composite literal followed
// by Validate.
type Scenario struct {
	// Name labels the scenario in registries, tables, and trace names.
	Name string

	// Phases is the piecewise-constant capacity program.
	Phases []Phase
	// Model is the seeded synthetic capacity generator.
	Model *Model
	// TraceCSV is the path of an externally captured "seconds,bps"
	// capacity trace (see trace.ReadCSV).
	TraceCSV string

	// Loss is the scenario-wide random loss probability. Phases may
	// declare it instead; setting both requires agreement.
	Loss float64
	// BurstLoss is the Gilbert-Elliott bursty loss rate (mean burst
	// 8 packets); zero disables the burst process.
	BurstLoss float64
	// RTT is the round-trip propagation delay; the compiled path
	// splits it evenly per direction. Zero keeps the emulator default
	// (25 ms each way).
	RTT time.Duration
	// Queue bounds the droptail bottleneck queue; zero derives it from
	// the largest phase MaxBurst, or keeps the emulator default.
	Queue units.Bytes
	// NACK enables receiver NACKs and sender retransmission for
	// sessions run under this scenario.
	NACK bool
}

// New builds a phased scenario and validates it.
func New(name string, phases ...Phase) (Scenario, error) {
	s := Scenario{Name: name, Phases: phases}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// MustNew is New but panics on error; for preset literals.
func MustNew(name string, phases ...Phase) Scenario {
	s, err := New(name, phases...)
	if err != nil {
		panic(err)
	}
	return s
}

// StepDrop returns the paper's motivating phased scenario: capacity
// before until dropAt, then capacity after for hold.
func StepDrop(before, after units.BitsPerSec, dropAt, hold time.Duration) Scenario {
	return MustNew(
		fmt.Sprintf("drop-%.1f-to-%.1fMbps", before.Mbps(), after.Mbps()),
		Phase{Duration: dropAt, Capacity: before},
		Phase{Duration: hold, Capacity: after},
	)
}

// Validate checks the scenario for impossible parameterizations. It
// reports the first problem found.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return errors.New("scenario: Name is required")
	}
	if strings.ContainsAny(s.Name, ",\n\r\t") {
		return fmt.Errorf("scenario: Name %q must not contain commas or whitespace controls", s.Name)
	}
	sources := 0
	if len(s.Phases) > 0 {
		sources++
	}
	if s.Model != nil {
		sources++
	}
	if s.TraceCSV != "" {
		sources++
	}
	if sources != 1 {
		return fmt.Errorf("scenario %q: exactly one of phases, model, trace_csv must be set (have %d)", s.Name, sources)
	}
	if err := s.validatePhases(); err != nil {
		return err
	}
	if s.Model != nil {
		if err := s.Model.validate(s.Name); err != nil {
			return err
		}
	}
	if err := probability("loss", s.Loss); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if err := probability("burst_loss", s.BurstLoss); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if s.RTT < 0 {
		return fmt.Errorf("scenario %q: rtt %v is negative", s.Name, s.RTT)
	}
	if s.Queue < 0 {
		return fmt.Errorf("scenario %q: queue_bytes %d is negative", s.Name, s.Queue)
	}
	return nil
}

// probability checks p is a probability in [0, 1].
func probability(field string, p float64) error {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return fmt.Errorf("%s %v outside [0, 1]", field, p)
	}
	return nil
}

// validatePhases checks each phase and the cross-phase agreement rules.
func (s *Scenario) validatePhases() error {
	var loss float64
	var rtt time.Duration
	for i, ph := range s.Phases {
		if ph.Duration <= 0 {
			return fmt.Errorf("scenario %q: phase %d duration %v is not positive", s.Name, i, ph.Duration)
		}
		// !(x > 0) rather than x <= 0: NaN compares false both ways (see
		// trace.New).
		if !(ph.Capacity > 0) || math.IsInf(float64(ph.Capacity), 1) {
			return fmt.Errorf("scenario %q: phase %d capacity %v is not a positive finite rate", s.Name, i, float64(ph.Capacity))
		}
		if ph.MaxBurst < 0 {
			return fmt.Errorf("scenario %q: phase %d max_burst %d is negative", s.Name, i, ph.MaxBurst)
		}
		if err := probability("loss", ph.Loss); err != nil {
			return fmt.Errorf("scenario %q: phase %d %w", s.Name, i, err)
		}
		if ph.RTT < 0 {
			return fmt.Errorf("scenario %q: phase %d rtt %v is negative", s.Name, i, ph.RTT)
		}
		// The emulator models loss and RTT as path constants: phases may
		// declare them, but they must agree with each other and with the
		// scenario-level fields.
		if ph.Loss != 0 {
			switch {
			case loss == 0:
				loss = ph.Loss
			// Exact-bits comparison: these are declared values that must
			// agree verbatim, not computed floats.
			case math.Float64bits(ph.Loss) != math.Float64bits(loss):
				return fmt.Errorf("scenario %q: phase %d loss %v disagrees with earlier phase loss %v (phase-varying loss is not supported yet)", s.Name, i, ph.Loss, loss)
			}
		}
		if ph.RTT != 0 {
			switch {
			case rtt == 0:
				rtt = ph.RTT
			case ph.RTT != rtt:
				return fmt.Errorf("scenario %q: phase %d rtt %v disagrees with earlier phase rtt %v (phase-varying rtt is not supported yet)", s.Name, i, ph.RTT, rtt)
			}
		}
	}
	if loss != 0 && s.Loss != 0 && math.Float64bits(loss) != math.Float64bits(s.Loss) {
		return fmt.Errorf("scenario %q: phase loss %v disagrees with scenario loss %v", s.Name, loss, s.Loss)
	}
	if rtt != 0 && s.RTT != 0 && rtt != s.RTT {
		return fmt.Errorf("scenario %q: phase rtt %v disagrees with scenario rtt %v", s.Name, rtt, s.RTT)
	}
	return nil
}

// validate checks the model parameterization.
func (m *Model) validate(scenarioName string) error {
	ok := false
	for _, k := range modelKinds() {
		if m.Kind == k {
			ok = true
		}
	}
	if !ok {
		return fmt.Errorf("scenario %q: unknown model kind %q (want %s)", scenarioName, m.Kind, strings.Join(modelKinds(), " | "))
	}
	if m.Mean < 0 || math.IsInf(float64(m.Mean), 1) || math.IsNaN(float64(m.Mean)) {
		return fmt.Errorf("scenario %q: model mean %v is not a non-negative finite rate", scenarioName, float64(m.Mean))
	}
	if m.Duration < 0 {
		return fmt.Errorf("scenario %q: model duration %v is negative", scenarioName, m.Duration)
	}
	if m.Step < 0 {
		return fmt.Errorf("scenario %q: model step %v is negative", scenarioName, m.Step)
	}
	if err := probability("fade_prob", m.FadeProb); err != nil {
		return fmt.Errorf("scenario %q: model %w", scenarioName, err)
	}
	if m.FadeProb != 0 && m.Kind != "lte" {
		return fmt.Errorf("scenario %q: fade_prob applies to the lte model only, not %q", scenarioName, m.Kind)
	}
	if m.Kind == "randomwalk" {
		start, lo, hi := m.walkBounds()
		if !(lo > 0) || !(hi > lo) || start < lo || start > hi {
			return fmt.Errorf("scenario %q: randomwalk bounds start=%v lo=%v hi=%v are inconsistent", scenarioName, float64(start), float64(lo), float64(hi))
		}
	}
	return nil
}

// walkBounds resolves the randomwalk parameters with their defaults.
func (m *Model) walkBounds() (start, lo, hi units.BitsPerSec) {
	start, lo, hi = m.Start, m.Lo, m.Hi
	if start == 0 {
		start = 2.5e6
	}
	if lo == 0 {
		lo = 0.5e6
	}
	if hi == 0 {
		hi = 5e6
	}
	return start, lo, hi
}

// TotalDuration returns the scenario's natural span: the phase sum for
// phased scenarios, the model duration for models (zero when the model
// defers to Compile), and zero for CSV traces (Compile's duration
// decides).
func (s *Scenario) TotalDuration() time.Duration {
	var total time.Duration
	for _, ph := range s.Phases {
		total += ph.Duration
	}
	if s.Model != nil {
		total = s.Model.Duration
	}
	return total
}

// Deterministic reports whether compiling the scenario ignores the seed
// (phased and CSV-backed scenarios; models are seeded).
func (s *Scenario) Deterministic() bool { return s.Model == nil }

// CompileConfig parameterizes Compile.
type CompileConfig struct {
	// Seed drives the model generators; ignored for deterministic
	// scenarios.
	Seed int64
	// Duration is the span model scenarios generate when the model
	// declares none of its own, and the span of a CSV-backed path.
	Duration time.Duration
}

// Path is a compiled scenario: the capacity trace plus the scalar link
// impairments, in the units session.Config and netem.Config consume.
type Path struct {
	// Trace is the capacity process.
	Trace *trace.Trace
	// Duration is the scenario's natural session length (zero when the
	// scenario does not pin one).
	Duration time.Duration
	// Loss is the random per-packet loss probability.
	Loss float64
	// BurstLoss is the Gilbert-Elliott loss rate (zero: off).
	BurstLoss float64
	// PropDelay is the one-way propagation delay (RTT split evenly);
	// zero keeps the emulator default.
	PropDelay time.Duration
	// Queue bounds the droptail queue; zero keeps the emulator
	// default.
	Queue units.Bytes
	// NACK mirrors Scenario.NACK.
	NACK bool
}

// Compile resolves the scenario into a Path. The same (scenario, config)
// always compiles to the same path; model scenarios draw from a seeded
// RNG only.
func (s *Scenario) Compile(cfg CompileConfig) (Path, error) {
	if err := s.Validate(); err != nil {
		return Path{}, err
	}
	p := Path{
		Loss:      s.Loss,
		BurstLoss: s.BurstLoss,
		PropDelay: s.RTT / 2,
		Queue:     s.Queue,
		NACK:      s.NACK,
		Duration:  s.TotalDuration(),
	}
	var burst units.Bits
	for _, ph := range s.Phases {
		if p.Loss == 0 {
			p.Loss = ph.Loss
		}
		if p.PropDelay == 0 {
			p.PropDelay = ph.RTT / 2
		}
		if ph.MaxBurst > burst {
			burst = ph.MaxBurst
		}
	}
	if p.Queue == 0 && burst > 0 {
		p.Queue = burst.Bytes()
	}

	switch {
	case len(s.Phases) > 0:
		tr, err := s.phasedTrace()
		if err != nil {
			return Path{}, err
		}
		p.Trace = tr
	case s.Model != nil:
		dur := s.Model.Duration
		if dur == 0 {
			dur = cfg.Duration
		}
		if dur <= 0 {
			return Path{}, fmt.Errorf("scenario %q: model needs a duration (none in the scenario or the compile config)", s.Name)
		}
		p.Duration = dur
		p.Trace = s.Model.trace(cfg.Seed, dur)
	default:
		f, err := os.Open(s.TraceCSV)
		if err != nil {
			return Path{}, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		defer f.Close()
		tr, err := trace.ReadCSV(s.Name, f)
		if err != nil {
			return Path{}, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		p.Trace = tr
		// A CSV row means "from here on": the last rate holds for the
		// rest of the session, so the file pins no span of its own.
		p.Duration = cfg.Duration
	}
	return p, nil
}

// phasedTrace lowers the phase list to trace breakpoints: one per phase
// start, even when consecutive phases share a capacity (redundant
// breakpoints are harmless and keep the lowering byte-faithful to the
// trace constructors, e.g. Staircase with repeated rates). Duplicate
// breakpoint times are impossible: durations are positive.
func (s *Scenario) phasedTrace() (*trace.Trace, error) {
	pts := make([]trace.Point, 0, len(s.Phases))
	var at time.Duration
	for _, ph := range s.Phases {
		pts = append(pts, trace.Point{At: at, Bps: ph.Capacity})
		at += ph.Duration
	}
	return trace.New(s.Name, pts...)
}

// trace generates the model's capacity trace.
func (m *Model) trace(seed int64, dur time.Duration) *trace.Trace {
	switch m.Kind {
	case "lte":
		return trace.LTE(seed, dur, trace.LTEConfig{Mean: float64(m.Mean), Step: m.Step, FadeProb: m.FadeProb})
	case "wifi":
		return trace.WiFi(seed, dur, trace.WiFiConfig{Mean: float64(m.Mean), Step: m.Step})
	case "randomwalk":
		start, lo, hi := m.walkBounds()
		step := m.Step
		if step == 0 {
			step = 200 * time.Millisecond
		}
		return trace.RandomWalk(seed, dur, step, float64(start), float64(lo), float64(hi))
	}
	// Validate rejects unknown kinds; reaching here is a programming
	// error.
	panic(fmt.Sprintf("scenario: unknown model kind %q", m.Kind))
}
