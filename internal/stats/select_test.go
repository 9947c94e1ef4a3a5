package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortedQuantile is Quantile as it was before selection: interpolate
// between the order statistics of a sort.Float64s-sorted copy.
func sortedQuantile(samples []float64, q float64) float64 {
	a := append([]float64(nil), samples...)
	sort.Float64s(a)
	if len(a) == 0 {
		return 0
	}
	if q <= 0 {
		return a[0]
	}
	if q >= 1 {
		return a[len(a)-1]
	}
	pos := q * float64(len(a)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return a[lo]
	}
	frac := pos - float64(lo)
	return a[lo]*(1-frac) + a[hi]*frac
}

// TestQuantileMatchesSort requires every Quantile, Min and Max of a
// Summary to be bit-identical to the sorted copy's, for seeded sample sets
// of many sizes with heavy ties, infinities and NaNs, asking for the
// quantiles in increasing, decreasing and random order on one Summary
// (each selection narrows the next) and across Reset.
func TestQuantileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	qs := []float64{0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1, 0.5, 0.5}
	var s Summary
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(60)
		if trial%50 == 0 {
			n = 500 + rng.Intn(2000)
		}
		s.Reset()
		var ref []float64
		distinct := 1 + rng.Intn(n+1)
		for i := 0; i < n; i++ {
			v := float64(rng.Intn(distinct)) - float64(distinct)/3
			switch rng.Intn(40) {
			case 0:
				v = math.NaN()
			case 1:
				v = math.Inf(1)
			case 2:
				v = math.Inf(-1)
			}
			s.Add(v)
			ref = append(ref, v)
		}
		order := append([]float64(nil), qs...)
		switch trial % 3 {
		case 1:
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		case 2:
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		for _, q := range order {
			if got, want := s.Quantile(q), sortedQuantile(ref, q); !sameFloat(got, want) {
				t.Fatalf("trial %d (n=%d): Quantile(%v) = %v, sorted copy gives %v", trial, n, q, got, want)
			}
		}
		if got, want := s.Min(), sortedQuantile(ref, 0); !sameFloat(got, want) {
			t.Fatalf("trial %d: Min = %v, want %v", trial, got, want)
		}
		if got, want := s.Max(), sortedQuantile(ref, 1); !sameFloat(got, want) {
			t.Fatalf("trial %d: Max = %v, want %v", trial, got, want)
		}
	}
}
