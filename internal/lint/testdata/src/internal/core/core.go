// Package core is the transitivepurity fixture: it sits at an
// entry-point path (internal/core), so every sink transitively reachable
// from its exported API must be flagged — with the taint path — no
// matter which package the sink lives in. It is also an internal package,
// so a sink here that nothing reaches is still flagged, without a path.
package core

import (
	"time"

	"fixture/puritydep"
)

// Clean reaches only pure code: no finding anywhere below it.
func Clean(x int) int { return puritydep.Pure(x) }

// Run reaches a wall-clock read two static hops away, crossing a package
// boundary.
func Run() { step() }

func step() int64 { return puritydep.Stamp() }

// Sampler is satisfied by puritydep.Dice; dispatching through the
// interface must still reach the implementation's sink (iface edge).
type Sampler interface{ Sample() float64 }

// Draw calls through the interface.
func Draw(s Sampler) float64 { return s.Sample() }

// Spawn hands puritydep.Fan over as a value (ref edge); the goroutine
// inside Fan is reachable even though Spawn never calls it directly.
func Spawn() { puritydep.Kick(puritydep.Fan) }

// Tick reaches a wall-clock read inside this internal package: the site
// is in both scopes and gets exactly one finding, with its path.
func Tick() int64 { return tick() }

func tick() int64 {
	return time.Now().UnixNano() // want `^wall-clock time\.Now reachable from entry point internal/core\.Tick \(path: internal/core\.Tick -> internal/core\.tick @core\.go:\d+ -> time\.Now @core\.go:\d+\)`
}

// hidden is unexported and called by nothing exported, so no path
// reaches it; the per-site walk still flags it because core is internal.
func hidden() int64 { return time.Now().UnixNano() } // want `^wall-clock time\.Now in internal package: all time must flow through the internal/simtime virtual clock$`
