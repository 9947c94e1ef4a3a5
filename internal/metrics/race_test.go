//go:build race

package metrics

// raceEnabled lets allocation-budget gates skip under the race detector,
// whose instrumentation perturbs allocation accounting.
const raceEnabled = true
