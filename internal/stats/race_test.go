//go:build race

package stats

// raceEnabled lets allocation-budget gates skip under the race detector,
// whose instrumentation perturbs allocation accounting.
const raceEnabled = true
