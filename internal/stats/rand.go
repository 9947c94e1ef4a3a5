package stats

import (
	"math"
	"math/rand"
)

// Rand is a thin deterministic PRNG wrapper. Every simulator component owns
// its own Rand seeded from the session seed, so adding randomness to one
// component never perturbs another (no shared-stream coupling).
//
// The source behind it (96 B) is created on the first draw, not by
// NewRand, and Seed restarts the stream in place on the next draw: a
// generator that never draws costs nothing, and a recycled component
// reseeds without allocating. A reseed costs about as much as one draw:
// the source is math/rand's generator seeded lazily (see source), so a
// stream's first 273 draws are each computed from two words of the seed
// instead of after Go's ~10 µs fill of a 4.9 KB register. Only a stream
// that goes past draw 273 makes the source allocate that register, once,
// and the source keeps it for every later stream. The stream is exactly
// that of rand.New(rand.NewSource(seed)). The zero value is seeded with 0.
type Rand struct {
	src   *rand.Rand
	seed  int64
	ready bool // src holds the stream for seed
}

// NewRand returns a PRNG seeded with seed.
func NewRand(seed int64) *Rand {
	r := new(Rand)
	r.Seed(seed)
	return r
}

// Seed restarts the generator's stream at seed, as if freshly built by
// NewRand(seed). The source is reseeded lazily, on the next draw.
func (r *Rand) Seed(seed int64) { r.seed, r.ready = seed, false }

// rng returns the source positioned in seed's stream, creating or
// reseeding it on the first draw after Seed.
func (r *Rand) rng() *rand.Rand {
	if !r.ready {
		r.start()
	}
	return r.src
}

// start positions the source at the beginning of seed's stream, kept out
// of rng so that the per-draw check inlines.
func (r *Rand) start() {
	if r.src == nil {
		src := new(source)
		src.Seed(r.seed)
		r.src = rand.New(src)
	} else {
		r.src.Seed(r.seed)
	}
	r.ready = true
}

// Float64 returns a uniform sample in [0, 1).
func (r *Rand) Float64() float64 { return r.rng().Float64() }

// Intn returns a uniform sample in [0, n). n must be positive.
func (r *Rand) Intn(n int) int { return r.rng().Intn(n) }

// NormFloat64 returns a standard normal sample.
func (r *Rand) NormFloat64() float64 { return r.rng().NormFloat64() }

// LogNormal returns a sample from a log-normal distribution with the given
// mean (of the underlying distribution, i.e. E[X] = mean) and coefficient of
// variation cv. cv = 0 returns mean exactly.
func (r *Rand) LogNormal(mean, cv float64) float64 {
	if cv <= 0 || mean <= 0 {
		return mean
	}
	sigma2 := math.Log1p(cv * cv)
	mu := math.Log(mean) - sigma2/2
	return math.Exp(mu + math.Sqrt(sigma2)*r.rng().NormFloat64())
}

// Exponential returns a sample from an exponential distribution with the
// given mean.
func (r *Rand) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return r.rng().ExpFloat64() * mean
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.rng().Float64() < p
}

// Jitter returns v scaled by a uniform factor in [1-amp, 1+amp].
func (r *Rand) Jitter(v, amp float64) float64 {
	if amp <= 0 {
		return v
	}
	return v * (1 + amp*(2*r.rng().Float64()-1))
}

// Split derives a new independent PRNG from this one. Used to hand each
// subcomponent its own stream.
func (r *Rand) Split() *Rand {
	return NewRand(r.rng().Int63())
}
