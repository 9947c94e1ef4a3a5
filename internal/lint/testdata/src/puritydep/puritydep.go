// Package puritydep holds the sinks for the transitivepurity fixture,
// one package removed from the entry points in internal/core. It lives
// outside internal/, so the per-site walk stays silent and only sinks an
// entry point reaches are reported here.
package puritydep

import (
	"math/rand"
	"time"
)

// Pure is sink-free.
func Pure(x int) int { return x * 2 }

// Stamp reads the wall clock.
func Stamp() int64 {
	return time.Now().UnixNano() // want `wall-clock time\.Now reachable from entry point internal/core\.Run \(path: internal/core\.Run -> internal/core\.step @core\.go:\d+ -> puritydep\.Stamp @core\.go:\d+ -> time\.Now @puritydep\.go:\d+\): all time must flow through the internal/simtime virtual clock`
}

// Dice satisfies core.Sampler.
type Dice struct{}

// Sample draws from the global RNG.
func (Dice) Sample() float64 {
	return rand.Float64() // want `global math/rand\.Float64 reachable from entry point internal/core\.Draw`
}

// Fan spawns a goroutine.
func Fan() {
	go func() {}() // want `goroutine spawn reachable from entry point internal/core\.Spawn`
}

// hidden is unexported and called by nothing: outside internal/, an
// unreachable sink stays unreported (reachability, not mere presence).
func hidden() int64 { return time.Now().UnixNano() }

// Kick receives a callback; calling a func-typed parameter adds no edge,
// the ref edge at the Spawn call site is what reaches Fan.
func Kick(fn func()) { fn() }
