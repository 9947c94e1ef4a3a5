package stats

import (
	"fmt"
	"testing"
)

func BenchmarkLinRegSlope(b *testing.B) {
	r := NewLinReg(20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Add(float64(i), float64(i%7))
		r.Slope()
	}
}

func BenchmarkWindowedMin(b *testing.B) {
	w := NewWindowedMin(2000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Update(float64(i % 997))
	}
}

// BenchmarkRandStream times one stream of n draws: "fresh" builds a new
// generator for it, as a synthetic trace does; "reseeded" restarts one
// that owns a register, as a recycled component does. Streams of at most
// 273 draws need no register; a fresh stream that goes past them builds
// one.
func BenchmarkRandStream(b *testing.B) {
	for _, n := range []int{70, 273, 400, 1000} {
		b.Run(fmt.Sprintf("fresh/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = NewRand(int64(i))
				for d := 0; d < n; d++ {
					sink.Float64()
				}
			}
		})
		b.Run(fmt.Sprintf("reseeded/%d", n), func(b *testing.B) {
			r := NewRand(0)
			for d := 0; d <= rngLen; d++ {
				r.Float64()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Seed(int64(i))
				for d := 0; d < n; d++ {
					r.Float64()
				}
			}
		})
	}
}
