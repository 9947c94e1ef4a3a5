package stats

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// sourceOp takes one draw of kind op from both generators and reports
// whether they agree. Every kind math/rand builds on a Source64 is here:
// the float draws and Intn go through Int63, Uint64 straight to the source.
func sourceOp(op byte, got, want *rand.Rand) bool {
	switch op % 7 {
	case 0:
		return sameFloat(got.Float64(), want.Float64())
	case 1:
		return sameFloat(got.NormFloat64(), want.NormFloat64())
	case 2:
		return sameFloat(got.ExpFloat64(), want.ExpFloat64())
	case 3:
		n := 1 + int(op)*977
		return got.Intn(n) == want.Intn(n)
	case 4:
		return got.Int63() == want.Int63()
	case 5:
		return got.Uint64() == want.Uint64()
	default:
		return got.Uint32() == want.Uint32()
	}
}

// newLazy returns the lazily seeded source wrapped as stats.Rand wraps it.
func newLazy(seed int64) *rand.Rand {
	_, r := newLazySource(seed)
	return r
}

// newLazySource returns the lazily seeded source and its wrapper, so a test
// can see whether the source holds a register.
func newLazySource(seed int64) (*source, *rand.Rand) {
	src := new(source)
	src.Seed(seed)
	return src, rand.New(src)
}

// TestSourceMatchesMathRand pins the lazily seeded source to math/rand's
// own, draw for draw, on both of its paths: a source without a register,
// which builds one at draw 274, and one that owns a register from an
// earlier stream and writes its early draws through to it. The seeds are
// those Go normalises specially (zero, negative, multiples of 2**31-1,
// the int64 extremes) and 300 random ones. Each stream is reseeded once
// after 100 mixed draws, inside its register-free first 273, then takes
// 1,500 more; every kind of draw takes at least one source draw, so each
// stream crosses source draws 273, 274 (the register is built or
// completed), 334 (feed has touched every word) and 607 (feed has
// rewritten every one).
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 89482311, -89482311, int32max, -int32max, 2 * int32max,
		7 * int32max, int32max - 1, int32max + 1, math.MinInt64, math.MaxInt64}
	pick := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	const (
		reseedAt = 100
		draws    = reseedAt + 1500
	)
	owner, ownerRand := newLazySource(-7)
	for ownerRand.Int63(); owner.vec == nil; ownerRand.Int63() {
	}
	for _, seed := range seeds {
		fresh, freshRand := newLazySource(seed)
		owner.Seed(seed)
		for _, c := range []struct {
			label string
			src   *source
			got   *rand.Rand
		}{{"without a register", fresh, freshRand}, {"owning a register", owner, ownerRand}} {
			hadRegister := c.src.vec != nil
			want := rand.New(rand.NewSource(seed))
			for i := 0; i < draws; i++ {
				if i == reseedAt {
					if c.src.early <= 0 || (c.src.vec != nil) != hadRegister {
						t.Fatalf("seed %d, %s: reseed at draw %d is not in the register-free phase", seed, c.label, i)
					}
					reseed := seed ^ int64(i)*0x5DEECE66D
					c.got.Seed(reseed)
					want.Seed(reseed)
				}
				if !sourceOp(byte(i*31+i/7), c.got, want) {
					t.Fatalf("seed %d, %s: draw %d (op %d) differs from math/rand", seed, c.label, i, byte(i*31+i/7)%7)
				}
			}
			if c.src.early >= 0 {
				t.Fatalf("seed %d, %s: the stream never built its register", seed, c.label)
			}
		}
	}
}

// FuzzSourceEquivalence drives the lazy source and math/rand's through
// the same fuzzed program: each byte is a draw kind (or a reseed) and a
// repeat count, so short inputs still reach the whole register.
func FuzzSourceEquivalence(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5})
	f.Add(int64(0), []byte{0xFF, 0xFE, 0x07, 0xFD})
	f.Add(int64(math.MinInt64), []byte{0xF7, 0x0E, 0xF5})
	f.Add(int64(int32max), []byte{0x7F, 0x87, 0x7B})
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		got, want := newLazy(seed), rand.New(rand.NewSource(seed))
		for pc, b := range prog {
			op := b & 7
			if op == 7 {
				seed = seed*6364136223846793005 + int64(b)
				got.Seed(seed)
				want.Seed(seed)
				continue
			}
			for k := 0; k <= int(b>>3)*8; k++ {
				if !sourceOp(op, got, want) {
					t.Fatalf("byte %d (%#x), repeat %d: draw differs from math/rand", pc, b, k)
				}
			}
		}
	})
}

// TestSeedCostScalesWithDraws gates lazy seeding: a reseed followed by one
// draw must cost at most a quarter of a reseed followed by 607 draws,
// which compute every word of the register. Eager seeding, Go's 1,841 LCG
// steps per Seed, puts both near 10 µs (ratio ~0.8); lazy seeding puts
// the first far below the second. Both are timed in this process in
// short interleaved chunks, keeping the fastest, so the bound holds on
// any host.
func TestSeedCostScalesWithDraws(t *testing.T) {
	if raceEnabled {
		t.Skip("timing is perturbed under -race")
	}
	const (
		rounds   = 5
		chunks   = 16
		perChunk = 256
		maxRatio = 0.25
	)
	reseedThenDraw := func(draws int) func() {
		var r Rand
		r.Float64()
		seed := int64(0)
		return func() {
			for i := 0; i < perChunk; i++ {
				seed++
				r.Seed(seed)
				for d := 0; d < draws; d++ {
					r.Float64()
				}
			}
		}
	}
	best := [2]float64{math.Inf(1), math.Inf(1)}
	for round := 0; round < rounds; round++ {
		runs := [2]func(){reseedThenDraw(1), reseedThenDraw(rngLen)}
		for chunk := 0; chunk < chunks; chunk++ {
			for k, run := range runs {
				start := time.Now()
				run()
				best[k] = min(best[k], float64(time.Since(start).Nanoseconds())/perChunk)
			}
		}
	}
	ratio := best[0] / best[1]
	t.Logf("Seed+1 draw: %.0f ns, Seed+%d draws: %.0f ns, ratio %.3f", best[0], rngLen, best[1], ratio)
	if ratio > maxRatio {
		t.Fatalf("Seed+1 draw costs %.2f× Seed+%d draws (max %.2f×): seeding does not scale with the draws", ratio, rngLen, maxRatio)
	}
}
