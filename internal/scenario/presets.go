package scenario

import (
	"fmt"
	"time"

	"rtcadapt/internal/units"
)

// The preset registry: every named capacity scenario the repo's
// experiments and commands use, in one declarative table. Each preset
// compiles to the byte-identical trace of the constructor it replaced
// (pinned by TestPresetTraceEquivalence against test-only reference
// copies of those constructors), so moving a caller onto the registry
// changes no output byte.
//
// The registry is a pure function, not a package-level map — the lint
// suite forbids package-level mutable state, and fresh values keep
// callers from aliasing each other's phase slices.

// standardBefore/standardAfter are the paper's motivating drop: the
// uplink steps from 2.5 Mbps to 0.8 Mbps.
const (
	standardBefore units.BitsPerSec = 2.5e6
	standardAfter  units.BitsPerSec = 0.8e6
	standardDropAt                  = 10 * time.Second
	standardTail                    = 20 * time.Second
)

// PresetNames lists the built-in presets in canonical order.
func PresetNames() []string {
	return []string{
		"constant",
		"standard",
		"double-drop",
		"flash-crowd",
		"staircase",
		"oscillating",
		"lte",
		"wifi",
		"randomwalk",
	}
}

// Preset returns a fresh copy of the named preset.
func Preset(name string) (Scenario, error) {
	switch name {
	case "constant":
		// A fixed 2.5 Mbps control path.
		return MustNew(name,
			Phase{Duration: standardDropAt + standardTail, Capacity: standardBefore},
		), nil
	case "standard":
		// The paper's Figure 1 drop, 2.5 -> 0.8 Mbps at 10 s, held for
		// the 20 s post-drop analysis window.
		return MustNew(name,
			Phase{Duration: standardDropAt, Capacity: standardBefore},
			Phase{Duration: standardTail, Capacity: standardAfter},
		), nil
	case "double-drop":
		// Two successive drops without recovery: the regime where a
		// controller that adapts once but re-probes too aggressively
		// overshoots the second, deeper floor.
		return MustNew(name,
			Phase{Duration: standardDropAt, Capacity: standardBefore},
			Phase{Duration: standardDropAt, Capacity: 1.5e6},
			Phase{Duration: standardDropAt, Capacity: standardAfter},
		), nil
	case "flash-crowd":
		// 2.5 -> 0.8 Mbps at 10 s, restored at 20 s: competing traffic
		// arrives and departs — capacity dips, then returns.
		return MustNew(name,
			Phase{Duration: standardDropAt, Capacity: standardBefore},
			Phase{Duration: standardDropAt, Capacity: standardAfter},
			Phase{Duration: standardDropAt, Capacity: standardBefore},
		), nil
	case "staircase":
		// 2.5 .. 0.5 Mbps, 5 s per step: gradual decay in five steps.
		return MustNew(name,
			Phase{Duration: 5 * time.Second, Capacity: 2.5e6},
			Phase{Duration: 5 * time.Second, Capacity: 2.0e6},
			Phase{Duration: 5 * time.Second, Capacity: 1.5e6},
			Phase{Duration: 5 * time.Second, Capacity: 1.0e6},
			Phase{Duration: 5 * time.Second, Capacity: 0.5e6},
		), nil
	case "oscillating":
		// 2.5 / 0.8 Mbps with a 2 s half-period for 40 s: a square wave
		// that punishes slow-converging controllers in both directions.
		return oscillatingPreset(name, 2.5e6, 0.8e6, 2*time.Second, 40*time.Second), nil
	case "lte":
		// AR(1) cellular capacity with deep fades, at the generator's
		// default 3 Mbps mean.
		return Scenario{Name: name, Model: &Model{Kind: "lte"}}, nil
	case "wifi":
		// Contention-driven WiFi capacity at the default 8 Mbps mean.
		return Scenario{Name: name, Model: &Model{Kind: "wifi"}}, nil
	case "randomwalk":
		// A 200 ms-step random walk from 2.5 Mbps in [0.5, 5] Mbps.
		return Scenario{Name: name, Model: &Model{Kind: "randomwalk"}}, nil
	}
	return Scenario{}, fmt.Errorf("scenario: unknown preset %q (have %v)", name, PresetNames())
}

// MustPreset is Preset but panics on unknown names; for tests and
// tables over PresetNames().
func MustPreset(name string) Scenario {
	s, err := Preset(name)
	if err != nil {
		panic(err)
	}
	return s
}

// oscillatingPreset builds the square-wave phase list: alternating hi/lo
// half-periods covering dur.
func oscillatingPreset(name string, hi, lo units.BitsPerSec, halfPeriod, dur time.Duration) Scenario {
	var phases []Phase
	atHi := true
	for at := time.Duration(0); at < dur; at += halfPeriod {
		level := lo
		if atHi {
			level = hi
		}
		hold := halfPeriod
		if at+hold > dur {
			hold = dur - at
		}
		phases = append(phases, Phase{Duration: hold, Capacity: level})
		atHi = !atHi
	}
	return MustNew(name, phases...)
}

// Population is an ordered scenario cycle for fleet-scale runs: session
// index i runs Members[i%len(Members)]. The built-in populations
// reproduce cmd/rtcfleet's legacy drop|lte|wifi|mixed switch exactly.
type Population struct {
	Name    string
	Members []Scenario
}

// PopulationNames lists the built-in fleet populations in canonical
// order.
func PopulationNames() []string {
	return []string{"drop", "lte", "wifi", "mixed"}
}

// dropGrid is the step-drop magnitude grid the fleet populations cycle
// through — the same grid the per-session experiments sweep.
func dropGrid() [][2]units.BitsPerSec {
	return [][2]units.BitsPerSec{
		{2.5e6, 1.8e6},
		{2.5e6, 1.5e6},
		{2.5e6, 1.0e6},
		{2.5e6, 0.5e6},
	}
}

// FleetPopulation returns the named population for sessions of the
// given duration. Phased members pin the drop at dur/3; model members
// generate dur+5s of capacity so the trace outlives the session.
func FleetPopulation(name string, dur time.Duration) (Population, error) {
	if dur <= 0 {
		return Population{}, fmt.Errorf("scenario: population duration must be positive, got %v", dur)
	}
	// Fresh values per member: populations hand scenarios to parallel
	// fleet shards, so members must not alias each other's Model.
	modelDur := dur + 5*time.Second
	lte := func() Scenario {
		return Scenario{Name: "lte", Model: &Model{Kind: "lte", Mean: 2.5e6, Duration: modelDur}}
	}
	wifi := func() Scenario {
		return Scenario{Name: "wifi", Model: &Model{Kind: "wifi", Mean: 2.5e6, Duration: modelDur}}
	}
	switch name {
	case "drop":
		p := Population{Name: name}
		for _, d := range dropGrid() {
			p.Members = append(p.Members, StepDrop(d[0], d[1], dur/3, dur-dur/3))
		}
		return p, nil
	case "lte":
		return Population{Name: name, Members: []Scenario{lte()}}, nil
	case "wifi":
		return Population{Name: name, Members: []Scenario{wifi()}}, nil
	case "mixed":
		// One-third each of step-drop, LTE, and WiFi channels with NACK
		// loss recovery and light random loss fleet-wide. The cycle
		// interleaves kinds at period 3 and drop magnitudes at period
		// 12, matching the legacy index arithmetic (index%3 selected the
		// kind, (index/3)%4 the magnitude).
		p := Population{Name: name}
		drops := dropGrid()
		for i := 0; i < 12; i++ {
			var m Scenario
			switch i % 3 {
			case 0:
				d := drops[(i/3)%len(drops)]
				m = StepDrop(d[0], d[1], dur/3, dur-dur/3)
			case 1:
				m = lte()
			default:
				m = wifi()
			}
			m.Loss = 0.005
			m.NACK = true
			p.Members = append(p.Members, m)
		}
		return p, nil
	}
	return Population{}, fmt.Errorf("scenario: unknown population %q (have %v)", name, PopulationNames())
}

// Member returns the population member for a session index.
func (p *Population) Member(index int) Scenario {
	return p.Members[index%len(p.Members)]
}
