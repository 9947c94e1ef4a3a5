package stats

import (
	"math"
	"math/rand"
	"testing"
)

// sliceLinReg and sliceRateMeter are the head-sliced windows (`s = s[1:]`
// then append) that the rings replaced, kept as reference models: the
// rings must perform the same float operations in the same order, so
// every answer must match bit for bit.
type sliceLinReg struct {
	window int
	xs, ys []float64
}

func (r *sliceLinReg) Add(x, y float64) {
	r.xs = append(r.xs, x)
	r.ys = append(r.ys, y)
	if len(r.xs) > r.window {
		r.xs = r.xs[1:]
		r.ys = r.ys[1:]
	}
}

func (r *sliceLinReg) Len() int { return len(r.xs) }

func (r *sliceLinReg) Slope() (float64, bool) {
	n := len(r.xs)
	if n < 2 {
		return 0, false
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += r.xs[i]
		sy += r.ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var num, den float64
	for i := 0; i < n; i++ {
		dx := r.xs[i] - mx
		num += dx * (r.ys[i] - my)
		den += dx * dx
	}
	if den == 0 {
		return 0, false
	}
	return num / den, true
}

func (r *sliceLinReg) Reset() { r.xs = r.xs[:0]; r.ys = r.ys[:0] }

type sliceRateMeter struct {
	window  float64
	times   []float64
	amounts []float64
	total   float64
}

func (m *sliceRateMeter) Add(t, amount float64) {
	m.times = append(m.times, t)
	m.amounts = append(m.amounts, amount)
	m.total += amount
	m.evict(t)
}

func (m *sliceRateMeter) evict(now float64) {
	cut := now - m.window
	i := 0
	for i < len(m.times) && m.times[i] < cut {
		m.total -= m.amounts[i]
		i++
	}
	if i > 0 {
		m.times = m.times[i:]
		m.amounts = m.amounts[i:]
	}
}

func (m *sliceRateMeter) Rate(t float64) float64 {
	m.evict(t)
	if len(m.times) == 0 {
		return 0
	}
	span := t - m.times[0]
	if span < m.window/2 {
		span = m.window / 2
	}
	return m.total / span
}

// sameFloat compares bit patterns, so a NaN matches only the same NaN and
// -0 differs from +0.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestLinRegMatchesSliceModel feeds the ring and the head-sliced model the
// same seeded streams — through many wraps of the window, with repeated x
// values (zero variance), occasional Resets and wild magnitudes — and
// requires bit-identical Slope and equal Len after every operation.
func TestLinRegMatchesSliceModel(t *testing.T) {
	for _, window := range []int{2, 3, 5, 20, 64} {
		for seed := int64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got, want := NewLinReg(window), &sliceLinReg{window: window}
			x := 0.0
			for op := 0; op < 5_000; op++ {
				switch r := rng.Intn(100); {
				case r < 2:
					got.Reset()
					want.Reset()
				case r < 12:
					// Equal x: the window may have zero variance.
					y := rng.NormFloat64()
					got.Add(x, y)
					want.Add(x, y)
				default:
					x += rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
					y := rng.NormFloat64() * 1e3
					got.Add(x, y)
					want.Add(x, y)
				}
				gs, gok := got.Slope()
				ws, wok := want.Slope()
				if !sameFloat(gs, ws) || gok != wok || got.Len() != want.Len() {
					t.Fatalf("window %d seed %d op %d: Slope %v,%v Len %d; model %v,%v Len %d",
						window, seed, op, gs, gok, got.Len(), ws, wok, want.Len())
				}
			}
		}
	}
}

// TestRateMeterMatchesSliceModel does the same for the rate meter: bursts
// of equal timestamps, steady streams that keep the window full while the
// ring wraps, and idle gaps longer than the window that evict everything,
// with Rate queried both at sample times and in between.
func TestRateMeterMatchesSliceModel(t *testing.T) {
	for _, window := range []float64{0.05, 0.5, 2} {
		for seed := int64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got, want := NewRateMeter(window), &sliceRateMeter{window: window}
			now := rng.Float64()
			for op := 0; op < 20_000; op++ {
				switch r := rng.Intn(1000); {
				case r < 5:
					now += window * (1 + 3*rng.Float64()) // idle gap
				case r < 300:
					// Same timestamp as the previous sample.
				default:
					now += rng.ExpFloat64() * window / 50
				}
				// Fractional amounts, so the running total carries rounding
				// residue through evictions.
				amount := (40 + 1460*rng.Float64()) * 8
				got.Add(now, amount)
				want.Add(now, amount)
				q := now
				if rng.Intn(4) == 0 {
					q += rng.Float64() * 2 * window
					now = q
				}
				if g, w := got.Rate(q), want.Rate(q); !sameFloat(g, w) {
					t.Fatalf("window %v seed %d op %d: Rate(%v) = %v, model %v", window, seed, op, q, g, w)
				}
				if got.samples.n != len(want.times) {
					t.Fatalf("window %v seed %d op %d: %d samples held, model %d", window, seed, op, got.samples.n, len(want.times))
				}
			}
		}
	}
}

// TestWindowsZeroAlloc pins the point of the rings: once a window has
// reached its high-water mark, Add and the queries allocate nothing.
func TestWindowsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	r := NewLinReg(20)
	m := NewRateMeter(0.5)
	now := 0.0
	step := func() {
		now += 0.001
		r.Add(now, now*2)
		r.Slope()
		m.Add(now, 9600)
		m.Rate(now)
	}
	for i := 0; i < 1000; i++ {
		step()
	}
	if got := testing.AllocsPerRun(5000, step); got != 0 {
		t.Fatalf("steady-state window update allocates %.3f per call, want 0", got)
	}
}
