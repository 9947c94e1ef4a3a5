package trace

import (
	"time"

	"rtcadapt/internal/stats"

	"rtcadapt/internal/units"
)

// pointCount bounds the samples a generator takes every step over dur,
// so it can size its point slice once.
func pointCount(dur, step time.Duration) int { return max(0, int(dur/step)+1) }

// The LTE model's fade shape and slow-fading spread. No experiment varies
// them, so they are constants rather than configuration.
const (
	// lteFadeDepth is the multiplicative capacity factor during a deep
	// fade.
	lteFadeDepth = 0.25
	// lteFadeHold is the mean fade duration.
	lteFadeHold = 2 * time.Second
	// lteSigma is the per-step lognormal variation (coefficient of
	// variation) of the slow-fading process.
	lteSigma = 0.15
)

// LTEConfig parameterizes the synthetic cellular capacity model.
type LTEConfig struct {
	// Mean is the long-run mean capacity in bits/s. Default 3 Mbps.
	Mean float64
	// Step is the sampling granularity. Default 200 ms.
	Step time.Duration
	// FadeProb is the per-step probability of entering a deep fade
	// (signal loss / cell-edge episode). Default 0.01.
	FadeProb float64
}

func (c *LTEConfig) defaults() {
	if c.Mean == 0 {
		c.Mean = 3e6
	}
	if c.Step == 0 {
		c.Step = 200 * time.Millisecond
	}
	if c.FadeProb == 0 {
		c.FadeProb = 0.01
	}
}

// LTE generates a synthetic cellular capacity trace: an AR(1) slow-fading
// process around the mean, punctuated by deep-fade episodes that reproduce
// the sudden bandwidth drops the paper targets (handover, cell edge).
func LTE(seed int64, dur time.Duration, cfg LTEConfig) *Trace {
	cfg.defaults()
	rng := stats.NewRand(seed)
	ps := make([]Point, 0, pointCount(dur, cfg.Step))
	level := cfg.Mean
	fadeLeft := time.Duration(0)
	const ar = 0.9 // AR(1) pull toward the mean
	for at := time.Duration(0); at < dur; at += cfg.Step {
		level = ar*level + (1-ar)*cfg.Mean
		level = rng.Jitter(level, lteSigma)
		level = stats.Clamp(level, 0.1*cfg.Mean, 3*cfg.Mean)
		bps := level
		if fadeLeft > 0 {
			bps = level * lteFadeDepth
			fadeLeft -= cfg.Step
		} else if rng.Bool(cfg.FadeProb) {
			fadeLeft = time.Duration(rng.Exponential(float64(lteFadeHold)))
			bps = level * lteFadeDepth
		}
		ps = append(ps, Point{At: at, Bps: units.BitsPerSec(bps)})
	}
	return mustOwn("lte", ps)
}

// The WiFi model's contention shape and short-timescale spread. No
// experiment varies them, so they are constants rather than
// configuration.
const (
	// wifiContentionProb is the per-step probability of a contention
	// burst (a competing station grabbing airtime).
	wifiContentionProb = 0.05
	// wifiContentionDepth is the capacity factor during contention.
	wifiContentionDepth = 0.4
	// wifiSigma is the per-step variation (WiFi is noisier than LTE at
	// short timescales).
	wifiSigma = 0.25
)

// WiFiConfig parameterizes the synthetic WiFi capacity model.
type WiFiConfig struct {
	// Mean is the long-run mean capacity in bits/s. Default 8 Mbps.
	Mean float64
	// Step is the sampling granularity. Default 100 ms.
	Step time.Duration
}

func (c *WiFiConfig) defaults() {
	if c.Mean == 0 {
		c.Mean = 8e6
	}
	if c.Step == 0 {
		c.Step = 100 * time.Millisecond
	}
}

// WiFi generates a synthetic WLAN capacity trace: high mean, short noisy
// excursions, and brief contention dips rather than LTE's long fades.
func WiFi(seed int64, dur time.Duration, cfg WiFiConfig) *Trace {
	cfg.defaults()
	rng := stats.NewRand(seed)
	ps := make([]Point, 0, pointCount(dur, cfg.Step))
	for at := time.Duration(0); at < dur; at += cfg.Step {
		bps := rng.Jitter(cfg.Mean, wifiSigma)
		if rng.Bool(wifiContentionProb) {
			bps *= wifiContentionDepth
		}
		bps = stats.Clamp(bps, 0.05*cfg.Mean, 2*cfg.Mean)
		ps = append(ps, Point{At: at, Bps: units.BitsPerSec(bps)})
	}
	return mustOwn("wifi", ps)
}

// RandomWalk generates a bounded multiplicative random walk, useful for
// stress-testing estimators.
func RandomWalk(seed int64, dur, step time.Duration, start, lo, hi float64) *Trace {
	if step <= 0 {
		panic("trace: RandomWalk step must be positive")
	}
	rng := stats.NewRand(seed)
	ps := make([]Point, 0, pointCount(dur, step))
	level := start
	for at := time.Duration(0); at < dur; at += step {
		level = stats.Clamp(rng.Jitter(level, 0.1), lo, hi)
		ps = append(ps, Point{At: at, Bps: units.BitsPerSec(level)})
	}
	return mustOwn("randomwalk", ps)
}
