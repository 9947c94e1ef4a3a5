package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEWMASeedAndConverge(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Seeded() {
		t.Error("zero EWMA reports seeded")
	}
	if got := e.Update(10); got != 10 {
		t.Errorf("first update = %v, want 10 (seed)", got)
	}
	e.Update(20) // 15
	if got := e.Value(); got != 15 {
		t.Errorf("after 10,20 with alpha .5: %v, want 15", got)
	}
	for i := 0; i < 100; i++ {
		e.Update(42)
	}
	if math.Abs(e.Value()-42) > 1e-9 {
		t.Errorf("EWMA did not converge to 42: %v", e.Value())
	}
}

func TestEWMAReset(t *testing.T) {
	e := NewEWMA(0.2)
	e.Update(5)
	e.Reset()
	if e.Seeded() || e.Value() != 0 {
		t.Error("Reset did not clear state")
	}
	e.Set(7)
	if !e.Seeded() || e.Value() != 7 {
		t.Error("Set did not seed")
	}
}

func TestEWMABadAlphaPanics(t *testing.T) {
	for _, a := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha %v did not panic", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}

// Property: EWMA stays within [min, max] of its inputs.
func TestEWMABoundedProperty(t *testing.T) {
	f := func(samples []float64) bool {
		if len(samples) == 0 {
			return true
		}
		for _, v := range samples {
			// Extreme magnitudes overflow the update arithmetic itself;
			// restrict to the range the simulator actually uses.
			if math.IsNaN(v) || math.Abs(v) > 1e12 {
				return true
			}
		}
		e := NewEWMA(0.3)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range samples {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
			got := e.Update(v)
			if got < lo-1e-9 || got > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWindowedMin(t *testing.T) {
	w := NewWindowedMin(3)
	cases := []struct {
		in   float64
		want float64
	}{
		{5, 5}, {3, 3}, {4, 3}, {6, 3}, {7, 4}, {8, 6}, {1, 1},
	}
	for i, c := range cases {
		if got := w.Update(c.in); got != c.want {
			t.Errorf("step %d: Update(%v) = %v, want %v", i, c.in, got, c.want)
		}
	}
}

func TestWindowedMinEmpty(t *testing.T) {
	w := NewWindowedMin(4)
	if !math.IsInf(w.Min(), 1) {
		t.Errorf("empty Min = %v, want +Inf", w.Min())
	}
}

// Property: windowed min equals brute-force min of last N samples.
func TestWindowedMinProperty(t *testing.T) {
	f := func(raw []int16) bool {
		const n = 5
		w := NewWindowedMin(n)
		hist := []float64{}
		for _, r := range raw {
			v := float64(r)
			hist = append(hist, v)
			got := w.Update(v)
			lo := math.Inf(1)
			start := len(hist) - n
			if start < 0 {
				start = 0
			}
			for _, h := range hist[start:] {
				lo = math.Min(lo, h)
			}
			if got != lo {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSummaryQuantiles(t *testing.T) {
	var s Summary
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	checks := []struct {
		q, want float64
	}{
		{0, 1}, {1, 100}, {0.5, 50.5}, {0.95, 95.05}, {0.99, 99.01},
	}
	for _, c := range checks {
		if got := s.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if s.Mean() != 50.5 {
		t.Errorf("Mean = %v, want 50.5", s.Mean())
	}
	if s.Count() != 100 {
		t.Errorf("Count = %d, want 100", s.Count())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Quantile(0.5) != 0 || s.Stddev() != 0 {
		t.Error("empty summary should return zeros")
	}
}

func TestSummaryStddev(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if got := s.Stddev(); math.Abs(got-2) > 1e-9 {
		t.Errorf("Stddev = %v, want 2", got)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestSummaryQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []int16, qa, qb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var s Summary
		for _, r := range raw {
			s.Add(float64(r))
		}
		a := float64(qa%101) / 100
		b := float64(qb%101) / 100
		if a > b {
			a, b = b, a
		}
		va, vb := s.Quantile(a), s.Quantile(b)
		return va <= vb+1e-9 && va >= s.Min()-1e-9 && vb <= s.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, v := range []float64{-1, 0, 1.9, 2, 5, 9.9, 10, 100} {
		h.Add(v)
	}
	want := []int{3, 1, 1, 0, 3}
	for i, c := range h.Counts() {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, c, want[i], h.Counts())
		}
	}
	if h.Total() != 8 {
		t.Errorf("Total = %d, want 8", h.Total())
	}
	if got := h.BucketMid(0); got != 1 {
		t.Errorf("BucketMid(0) = %v, want 1", got)
	}
}

func TestLinRegSlope(t *testing.T) {
	r := NewLinReg(10)
	if _, ok := r.Slope(); ok {
		t.Error("slope of empty regression reported ok")
	}
	for i := 0; i < 5; i++ {
		r.Add(float64(i), 3*float64(i)+1)
	}
	slope, ok := r.Slope()
	if !ok || math.Abs(slope-3) > 1e-9 {
		t.Errorf("Slope = %v,%v want 3,true", slope, ok)
	}
}

func TestLinRegWindowEviction(t *testing.T) {
	r := NewLinReg(3)
	// Old points with slope -1 must be evicted by new points with slope +2.
	r.Add(0, 10)
	r.Add(1, 9)
	r.Add(2, 8)
	r.Add(10, 0)
	r.Add(11, 2)
	r.Add(12, 4)
	slope, ok := r.Slope()
	if !ok || math.Abs(slope-2) > 1e-9 {
		t.Errorf("Slope after eviction = %v, want 2", slope)
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}
}

func TestLinRegZeroVariance(t *testing.T) {
	r := NewLinReg(5)
	r.Add(1, 1)
	r.Add(1, 2)
	if _, ok := r.Slope(); ok {
		t.Error("zero x-variance should report !ok")
	}
}

func TestRateMeter(t *testing.T) {
	m := NewRateMeter(1.0)
	m.Add(0.0, 500)
	m.Add(0.5, 500)
	m.Add(1.0, 500)
	// At t=1.0 the window [0,1] holds all 1500 units over span 1.0.
	got := m.Rate(1.0)
	if math.Abs(got-1500) > 1 {
		t.Errorf("Rate(1.0) = %v, want ~1500", got)
	}
	// At t=2.0 only the t=1.0 sample remains.
	got = m.Rate(2.0)
	if got > 1001 || got <= 0 {
		t.Errorf("Rate(2.0) = %v, want (0, ~1000]", got)
	}
	// Far future: empty window.
	if got := m.Rate(10); got != 0 {
		t.Errorf("Rate(10) = %v, want 0", got)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 10) != 5 || Clamp(-1, 0, 10) != 0 || Clamp(11, 0, 10) != 10 {
		t.Error("Clamp misbehaves")
	}
	if ClampInt(5, 0, 10) != 5 || ClampInt(-1, 0, 10) != 0 || ClampInt(11, 0, 10) != 10 {
		t.Error("ClampInt misbehaves")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed PRNGs diverged")
		}
	}
	c := NewRand(43)
	same := true
	a2 := NewRand(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRandLogNormalMean(t *testing.T) {
	r := NewRand(1)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += r.LogNormal(100, 0.3)
	}
	mean := sum / n
	if math.Abs(mean-100) > 3 {
		t.Errorf("LogNormal mean = %v, want ~100", mean)
	}
	if r.LogNormal(100, 0) != 100 {
		t.Error("cv=0 should return the mean exactly")
	}
}

func TestRandBool(t *testing.T) {
	r := NewRand(7)
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	n := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		if r.Bool(0.25) {
			n++
		}
	}
	frac := float64(n) / trials
	if math.Abs(frac-0.25) > 0.02 {
		t.Errorf("Bool(0.25) frequency = %v", frac)
	}
}

func TestRandJitterBounds(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 1000; i++ {
		v := r.Jitter(100, 0.1)
		if v < 90 || v > 110 {
			t.Fatalf("Jitter out of bounds: %v", v)
		}
	}
	if r.Jitter(100, 0) != 100 {
		t.Error("zero-amp jitter changed value")
	}
}

func TestRandSplitIndependence(t *testing.T) {
	r := NewRand(5)
	s1 := r.Split()
	s2 := r.Split()
	if s1.Float64() == s2.Float64() && s1.Float64() == s2.Float64() {
		t.Error("split streams look identical")
	}
}

func TestRandExponentialMean(t *testing.T) {
	r := NewRand(11)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += r.Exponential(50)
	}
	if m := sum / n; math.Abs(m-50) > 2 {
		t.Errorf("Exponential mean = %v, want ~50", m)
	}
	if r.Exponential(0) != 0 {
		t.Error("Exponential(0) should be 0")
	}
}

func TestWindowedMax(t *testing.T) {
	w := NewWindowedMax(3)
	cases := []struct{ in, want float64 }{
		{5, 5}, {3, 5}, {4, 5}, {6, 6}, {2, 6}, {1, 6}, {0, 2},
	}
	for i, c := range cases {
		if got := w.Update(c.in); got != c.want {
			t.Errorf("step %d: Update(%v) = %v, want %v", i, c.in, got, c.want)
		}
	}
	empty := NewWindowedMax(4)
	if !math.IsInf(empty.Max(), -1) {
		t.Errorf("empty Max = %v, want -Inf", empty.Max())
	}
}

// Property: windowed max equals brute-force max of last N samples.
func TestWindowedMaxProperty(t *testing.T) {
	f := func(raw []int16) bool {
		const n = 5
		w := NewWindowedMax(n)
		hist := []float64{}
		for _, r := range raw {
			v := float64(r)
			hist = append(hist, v)
			got := w.Update(v)
			hi := math.Inf(-1)
			start := len(hist) - n
			if start < 0 {
				start = 0
			}
			for _, h := range hist[start:] {
				hi = math.Max(hi, h)
			}
			if got != hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSummaryStddevIndependentOfQuantileOrder asks two copies of each of
// ten sample sets for quantiles in different orders, which leave their
// buffers in different orders, and requires bit-identical deviations.
// Summed in buffer order, most of these sets differ in the last bits.
func TestSummaryStddevIndependentOfQuantileOrder(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		r := NewRand(seed)
		var a, b Summary
		for i := 0; i < 1000; i++ {
			v := 100 + 3*r.NormFloat64()
			a.Add(v)
			b.Add(v)
		}
		for _, q := range []float64{0.05, 0.5, 0.95, 0.99} {
			a.Quantile(q)
		}
		for _, q := range []float64{0.99, 0.25, 0.75, 0.01} {
			b.Quantile(q)
		}
		if sa, sb := a.Stddev(), b.Stddev(); math.Float64bits(sa) != math.Float64bits(sb) {
			t.Fatalf("seed %d: Stddev after different quantile orders: %v and %v", seed, sa, sb)
		}
		// The sort Stddev leaves behind must not disturb later
		// selections.
		var c Summary
		for _, v := range a.Samples() {
			c.Add(v)
		}
		for _, q := range []float64{0.9, 0.1, 0.5} {
			if got, want := a.Quantile(q), c.Quantile(q); got != want {
				t.Fatalf("seed %d: Quantile(%v) after Stddev = %v, want %v", seed, q, got, want)
			}
		}
	}
}
