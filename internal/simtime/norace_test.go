//go:build !race

package simtime

// raceEnabled lets allocation-budget and cost-ratio gates skip under the
// race detector, whose instrumentation perturbs allocation accounting
// and timing.
const raceEnabled = false
