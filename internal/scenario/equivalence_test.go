package scenario

import (
	"fmt"
	"testing"
	"time"

	"rtcadapt/internal/trace"
	"rtcadapt/internal/units"
)

// These tests pin the presets against the trace constructors the
// experiments were first written with: every one has a declarative
// preset that compiles to exactly the same breakpoints (the full
// observable content of a trace). The constructors below are those
// constructors, kept verbatim as a test-only reference model: the
// scenario corpus is the only production description of a path, and a
// bug in the phase lowering cannot hide in code it shares with them.

// stepDrop is the paper's motivating scenario: capacity before until
// dropAt, then capacity after.
func stepDrop(before, after units.BitsPerSec, dropAt time.Duration) *trace.Trace {
	return trace.MustNew(
		fmt.Sprintf("drop-%.1f-to-%.1fMbps", before.Mbps(), after.Mbps()),
		trace.Point{At: 0, Bps: before},
		trace.Point{At: dropAt, Bps: after},
	)
}

// stepDropRecover is stepDrop with capacity restored to before at
// recoverAt.
func stepDropRecover(before, after units.BitsPerSec, dropAt, recoverAt time.Duration) *trace.Trace {
	if recoverAt <= dropAt {
		panic("trace: recoverAt must follow dropAt")
	}
	return trace.MustNew(
		fmt.Sprintf("droprec-%.1f-to-%.1fMbps", before.Mbps(), after.Mbps()),
		trace.Point{At: 0, Bps: before},
		trace.Point{At: dropAt, Bps: after},
		trace.Point{At: recoverAt, Bps: before},
	)
}

// staircase steps through the given rates, holding each for hold.
func staircase(hold time.Duration, rates ...units.BitsPerSec) *trace.Trace {
	if len(rates) == 0 {
		panic("trace: Staircase needs at least one rate")
	}
	ps := make([]trace.Point, len(rates))
	for i, r := range rates {
		ps[i] = trace.Point{At: time.Duration(i) * hold, Bps: r}
	}
	return trace.MustNew("staircase", ps...)
}

// oscillating is a square wave alternating between hi and lo with the
// given half-period, for the given duration.
func oscillating(hi, lo units.BitsPerSec, halfPeriod, dur time.Duration) *trace.Trace {
	var ps []trace.Point
	atHi := true
	for at := time.Duration(0); at < dur; at += halfPeriod {
		level := lo
		if atHi {
			level = hi
		}
		ps = append(ps, trace.Point{At: at, Bps: level})
		atHi = !atHi
	}
	return trace.MustNew("oscillating", ps...)
}

func TestPresetTraceEquivalence(t *testing.T) {
	const (
		seed = int64(42)
		dur  = 60 * time.Second
	)
	legacy := map[string]*trace.Trace{
		"constant":    trace.Constant(2.5e6),
		"standard":    stepDrop(2.5e6, 0.8e6, 10*time.Second),
		"flash-crowd": stepDropRecover(2.5e6, 0.8e6, 10*time.Second, 20*time.Second),
		"staircase":   staircase(5*time.Second, 2.5e6, 2.0e6, 1.5e6, 1.0e6, 0.5e6),
		"oscillating": oscillating(2.5e6, 0.8e6, 2*time.Second, 40*time.Second),
		"lte":         trace.LTE(seed, dur, trace.LTEConfig{}),
		"wifi":        trace.WiFi(seed, dur, trace.WiFiConfig{}),
		"randomwalk":  trace.RandomWalk(seed, dur, 200*time.Millisecond, 2.5e6, 0.5e6, 5e6),
	}
	for _, name := range PresetNames() {
		want, ok := legacy[name]
		if !ok {
			continue // no legacy constructor to pin against (double-drop)
		}
		t.Run(name, func(t *testing.T) {
			s := MustPreset(name)
			p, err := s.Compile(CompileConfig{Seed: seed, Duration: dur})
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			if !samePoints(p.Trace, want) {
				t.Errorf("preset %q differs from its reference constructor:\ngot:  %v\nwant: %v",
					name, p.Trace.Points(), want.Points())
			}
		})
	}
	// Every legacy constructor must be covered by a preset.
	names := map[string]bool{}
	for _, n := range PresetNames() {
		names[n] = true
	}
	for n := range legacy {
		if !names[n] {
			t.Errorf("legacy scenario %q has no preset", n)
		}
	}
}

// TestFleetPopulationEquivalence pins the populations against the exact
// trace expressions cmd/rtcfleet used before the registry existed (the
// drop|lte|wifi|mixed switch over index and seed).
func TestFleetPopulationEquivalence(t *testing.T) {
	const dur = 10 * time.Second
	legacyDrops := [][2]units.BitsPerSec{
		{2.5e6, 1.8e6}, {2.5e6, 1.5e6}, {2.5e6, 1.0e6}, {2.5e6, 0.5e6},
	}
	legacy := func(name string, index int, seed int64) *trace.Trace {
		switch name {
		case "drop":
			d := legacyDrops[index%len(legacyDrops)]
			return stepDrop(d[0], d[1], dur/3)
		case "lte":
			return trace.LTE(seed, dur+5*time.Second, trace.LTEConfig{Mean: 2.5e6})
		case "wifi":
			return trace.WiFi(seed, dur+5*time.Second, trace.WiFiConfig{Mean: 2.5e6})
		case "mixed":
			switch index % 3 {
			case 0:
				d := legacyDrops[(index/3)%len(legacyDrops)]
				return stepDrop(d[0], d[1], dur/3)
			case 1:
				return trace.LTE(seed, dur+5*time.Second, trace.LTEConfig{Mean: 2.5e6})
			default:
				return trace.WiFi(seed, dur+5*time.Second, trace.WiFiConfig{Mean: 2.5e6})
			}
		}
		t.Fatalf("unknown population %q", name)
		return nil
	}
	for _, name := range PopulationNames() {
		t.Run(name, func(t *testing.T) {
			pop, err := FleetPopulation(name, dur)
			if err != nil {
				t.Fatalf("FleetPopulation: %v", err)
			}
			// Two full cycles: the member cycle must reproduce the legacy
			// per-index arithmetic, not just the first lap.
			for index := 0; index < 2*len(pop.Members); index++ {
				seed := int64(1000 + index)
				m := pop.Member(index)
				p, err := m.Compile(CompileConfig{Seed: seed})
				if err != nil {
					t.Fatalf("index %d: Compile: %v", index, err)
				}
				want := legacy(name, index, seed)
				if !samePoints(p.Trace, want) {
					t.Errorf("index %d: trace differs from the legacy fleet switch", index)
				}
				wantLoss, wantNACK := 0.0, false
				if name == "mixed" {
					wantLoss, wantNACK = 0.005, true
				}
				if p.Loss != wantLoss || p.NACK != wantNACK {
					t.Errorf("index %d: impairments loss=%v nack=%v", index, p.Loss, p.NACK)
				}
			}
		})
	}
}

func TestPresetUnknown(t *testing.T) {
	if _, err := Preset("5g"); err == nil {
		t.Fatal("Preset accepted an unknown name")
	}
	if _, err := FleetPopulation("5g", time.Second); err == nil {
		t.Fatal("FleetPopulation accepted an unknown name")
	}
}

func TestPresetsValidateAndAreFresh(t *testing.T) {
	for _, name := range PresetNames() {
		s := MustPreset(name)
		if err := s.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
		if s.Name != name {
			t.Errorf("preset %q has Name %q", name, s.Name)
		}
		// Mutating one copy must not leak into the next.
		if len(s.Phases) > 0 {
			s.Phases[0].Capacity = 1
			if again := MustPreset(name); again.Phases[0].Capacity == 1 {
				t.Errorf("preset %q shares phase storage across calls", name)
			}
		}
	}
}
