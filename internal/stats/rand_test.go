package stats

import (
	"math/rand"
	"runtime"
	"testing"
)

// drawAll takes one of every kind of draw the wrapper offers from r and
// the same draw from the reference source, failing on the first mismatch.
func drawAll(t *testing.T, label string, r *Rand, ref *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var got, want float64
		switch i % 5 {
		case 0:
			got, want = r.Float64(), ref.Float64()
		case 1:
			got, want = float64(r.Intn(1000)), float64(ref.Intn(1000))
		case 2:
			got, want = r.NormFloat64(), ref.NormFloat64()
		case 3:
			got, want = r.Exponential(2), ref.ExpFloat64()*2
		case 4:
			// Split consumes one Int63 of the parent and seeds a child with it.
			child := r.Split()
			refChild := rand.New(rand.NewSource(ref.Int63()))
			got, want = child.Float64(), refChild.Float64()
		}
		if !sameFloat(got, want) {
			t.Fatalf("%s: draw %d = %v, math/rand gives %v", label, i, got, want)
		}
	}
}

// TestRandMatchesMathRand pins the lazy source to the stream it replaces:
// for many seeds, a fresh Rand, a Rand reseeded after drawing from another
// seed, one reseeded before ever drawing, and the zero value (seed 0) all
// draw exactly what rand.New(rand.NewSource(seed)) draws.
func TestRandMatchesMathRand(t *testing.T) {
	recycled := NewRand(-1)
	for seed := int64(-3); seed < 200; seed++ {
		drawAll(t, "fresh", NewRand(seed), rand.New(rand.NewSource(seed)), 50)

		recycled.Float64() // leave the previous stream mid-way
		recycled.Seed(seed)
		drawAll(t, "reseeded", recycled, rand.New(rand.NewSource(seed)), 50)

		idle := NewRand(seed + 1)
		idle.Seed(seed)
		drawAll(t, "reseeded before use", idle, rand.New(rand.NewSource(seed)), 50)
	}
	var zero Rand
	drawAll(t, "zero value", &zero, rand.New(rand.NewSource(0)), 50)
}

// TestRandReseedZeroAlloc checks that a generator costs its source only
// once it draws, and that reseeding a used generator allocates nothing.
func TestRandReseedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	var r Rand
	if got := testing.AllocsPerRun(100, func() { r.Seed(7); r.Bool(0); r.Jitter(1, 0) }); got != 0 {
		t.Fatalf("a generator that never draws allocates %.1f per use", got)
	}
	if r.src != nil {
		t.Fatal("source created without a draw")
	}
	r.Float64()
	if got := testing.AllocsPerRun(100, func() { r.Seed(9); r.Float64() }); got != 0 {
		t.Fatalf("reseeding a used generator allocates %.1f per reseed", got)
	}
}

// shortStreamBudget bounds the bytes NewRand plus 273 draws allocates: the
// Rand, its math/rand wrapper and the register-free source, 120 B in
// three objects. Building the 4.9 KB register for the stream put it at
// about 5.4 KB.
const shortStreamBudget = 128

// allocPerRun returns the heap bytes and objects one call of f allocates,
// averaged over runs calls.
func allocPerRun(runs int, f func()) (bytes, objects float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs),
		float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// sink keeps the generators the allocation gates build on the heap, as a
// component that owns one keeps it.
var sink *Rand

// TestRandShortStreamAllocBudget gates the register-free start of a
// stream: a fresh generator's first 273 draws allocate no register, the
// 274th allocates it once, and a generator that owns one, reseeded,
// allocates nothing however far it draws.
func TestRandShortStreamAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	draw := func(r *Rand, n int) {
		for i := 0; i < n; i++ {
			r.Float64() // one source draw
		}
	}
	seed := int64(0)
	short, _ := allocPerRun(200, func() {
		seed++
		sink = NewRand(seed)
		draw(sink, rngTap)
	})
	t.Logf("NewRand + %d draws: %.0f B", rngTap, short)
	if short > shortStreamBudget {
		t.Fatalf("NewRand + %d draws allocates %.0f B, budget %d: the stream builds a register before it needs one", rngTap, short, shortStreamBudget)
	}

	const register = rngLen * 8
	gens := make([]*Rand, 50)
	for i := range gens {
		seed++
		gens[i] = NewRand(seed)
		draw(gens[i], rngTap)
	}
	next := 0
	bytes, objects := allocPerRun(len(gens), func() { draw(gens[next], 1); next++ })
	t.Logf("draw %d: %.0f B in %.2f objects", rngTap+1, bytes, objects)
	if objects < 1 || objects > 1.1 || bytes < register || bytes > register+64 {
		t.Fatalf("draw %d allocates %.0f B in %.2f objects, want the %d B register once", rngTap+1, bytes, objects, register)
	}

	r := NewRand(1)
	draw(r, rngTap+1)
	if got := testing.AllocsPerRun(20, func() { seed++; r.Seed(seed); draw(r, 1000) }); got != 0 {
		t.Fatalf("a reseeded generator that owns a register allocates %.1f times across 1,000 draws", got)
	}
}
