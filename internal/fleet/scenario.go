package fleet

import (
	"fmt"
	"time"

	"rtcadapt/internal/core"
	"rtcadapt/internal/scenario"
	"rtcadapt/internal/session"
	"rtcadapt/internal/video"
)

// Built-in fleet scenarios, backed by the internal/scenario population
// registry. Each maps (index, seed) to a session config
// deterministically: the index steers the discrete population structure
// (content class, drop magnitude, scenario mix) and the seed drives
// every stochastic component, so the fleet's output is a pure function
// of (scenario, duration, fleet seed, population size).

// ScenarioNames lists the built-in fleet populations in canonical order.
func ScenarioNames() []string { return scenario.PopulationNames() }

// fleetContent alternates the two content classes across the population.
func fleetContent(index int) video.Class {
	if index%2 == 0 {
		return video.TalkingHead
	}
	return video.Gaming
}

// ScenarioBuild returns the pure per-session Config builder for a named
// population with the given per-session duration.
func ScenarioBuild(name string, dur time.Duration) (func(index int, seed int64) session.Config, error) {
	if dur <= 0 {
		return nil, fmt.Errorf("fleet: scenario duration must be positive, got %v", dur)
	}
	pop, err := scenario.FleetPopulation(name, dur)
	if err != nil {
		return nil, err
	}
	return PopulationBuild(pop, dur)
}

// PopulationBuild returns the pure per-session Config builder over an
// explicit population: session index i runs member i%len with seed-driven
// randomness. The returned function is the fleet Config.Build: it
// compiles the member and constructs a fresh controller every call
// (controllers are stateful and single-use) and never consults anything
// but its arguments.
func PopulationBuild(pop scenario.Population, dur time.Duration) (func(index int, seed int64) session.Config, error) {
	if dur <= 0 {
		return nil, fmt.Errorf("fleet: scenario duration must be positive, got %v", dur)
	}
	if len(pop.Members) == 0 {
		return nil, fmt.Errorf("fleet: population %q has no members", pop.Name)
	}
	for _, m := range pop.Members {
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
	}
	// Model members without their own span generate dur+5s of capacity so
	// the trace outlives the session (the FleetPopulation convention).
	modelDur := dur + 5*time.Second
	return func(index int, seed int64) session.Config {
		member := pop.Member(index)
		path, err := member.Compile(scenario.CompileConfig{Seed: seed, Duration: modelDur})
		if err != nil {
			panic(fmt.Sprintf("fleet: scenario %q: %v", member.Name, err))
		}
		// The paper's adaptive controller over the default GCC estimator.
		cfg := session.Config{
			Duration:    dur,
			Seed:        seed,
			Content:     fleetContent(index),
			InitialRate: 1e6,
			Controller:  core.NewAdaptive(core.AdaptiveConfig{}),
		}
		cfg.ApplyPath(path)
		if err := cfg.Validate(); err != nil {
			panic(fmt.Sprintf("fleet: bad scenario config: %v", err))
		}
		return cfg
	}, nil
}
