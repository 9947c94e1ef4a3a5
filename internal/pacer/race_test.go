//go:build race

package pacer

// raceEnabled lets allocation-budget gates skip under the race detector,
// whose instrumentation perturbs allocation accounting.
const raceEnabled = true
