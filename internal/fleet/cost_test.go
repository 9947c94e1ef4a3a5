package fleet

import (
	"math"
	"runtime"
	"testing"
	"time"

	"rtcadapt/internal/session"
)

// recycledCostMaxRatio bounds the wall time of a session run in a
// recycled shell, relative to a fresh one, both measured in this process.
// A recycled session skips most of the setup a fresh one pays, so it
// measures below 1×; a per-session pass over the shard's earlier sessions
// grows with the shard and crosses the bound.
const recycledCostMaxRatio = 1.2

// TestRecycledSessionCost gates the wall time of a 64-session, 8-shard,
// one-worker `mixed` fleet — eight sessions per shard, seven of them in a
// recycled shell — against the same 64 sessions run one fresh session per
// shard. One worker runs the shards one after another, so the fleet is
// timed shard by shard: each block of eight sessions runs as a one-shard
// fleet (recycled) and as an eight-shard fleet (fresh), the two
// interleaved block by block, five rounds. Each block keeps its fastest
// time on each side, and the sums are compared: short interleaved blocks
// let both sides see the same host, and on a loaded machine the fastest
// block is one the process ran without being preempted.
func TestRecycledSessionCost(t *testing.T) {
	if raceEnabled {
		t.Skip("timing is perturbed under -race")
	}
	build, err := ScenarioBuild("mixed", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	const sessions, block = 64, 8
	// blockSeconds runs sessions lo..lo+block-1 of the population as one
	// fleet on the given number of shards, starting from a collected heap.
	blockSeconds := func(lo, shards int) float64 {
		from := func(i int, seed int64) session.Config { return build(lo+i, seed+int64(lo)) }
		runtime.GC()
		start := time.Now()
		if _, err := Run(Config{Sessions: block, Shards: shards, Workers: 1, Seed: 1, Build: from}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start).Seconds()
	}
	var fresh, recycled [sessions / block]float64
	for b := range fresh {
		fresh[b], recycled[b] = math.Inf(1), math.Inf(1)
	}
	for round := 0; round < 5; round++ {
		for b := range fresh {
			fresh[b] = min(fresh[b], blockSeconds(b*block, block))
			recycled[b] = min(recycled[b], blockSeconds(b*block, 1))
		}
	}
	var f, r float64
	for b := range fresh {
		f, r = f+fresh[b], r+recycled[b]
	}
	ratio := r / f
	t.Logf("fresh %.0f µs/session, recycled %.0f µs/session, ratio %.2f",
		f/sessions*1e6, r/sessions*1e6, ratio)
	if ratio > recycledCostMaxRatio {
		t.Fatalf("a recycled fleet session costs %.2f× a fresh one (max %.1f×)", ratio, recycledCostMaxRatio)
	}
}
