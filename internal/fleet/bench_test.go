package fleet

import (
	"testing"
	"time"
)

// BenchmarkFleet is the whole-fleet throughput benchmark: N two-second
// mixed-scenario sessions sharded over the worker pool. One iteration
// runs a complete fleet, so ns/op is the wall-clock cost of the
// population and the sessions/s custom metric is the figure
// EXPERIMENTS.md tracks for the 100k-session record. Wired into the
// benchjson baseline (BENCH_10.json) via `make bench-json`.
func BenchmarkFleet(b *testing.B) {
	build, err := ScenarioBuild("mixed", 2*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	const sessions = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{
			Sessions: sessions,
			Shards:   8,
			Seed:     1,
			Build:    build,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Sessions) != sessions {
			b.Fatalf("got %d summaries", len(res.Sessions))
		}
	}
	b.StopTimer()
	perFleet := b.Elapsed() / time.Duration(b.N)
	if perFleet > 0 {
		b.ReportMetric(float64(sessions)/perFleet.Seconds(), "sessions/s")
	}
}
