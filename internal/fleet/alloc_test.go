package fleet

import (
	"runtime"
	"testing"
	"time"
)

// fleetAllocBudgetPerSession bounds the heap bytes one more session of a
// one-shard `mixed` fleet of 2 s sessions allocates. The shard's shell
// keeps every session's ledger, timeline, packet slabs, PRNG sources,
// feedback reports and their arrival buffers (those still in flight when
// a session ends included), rings and windows, so what a session still
// allocates is mostly what Build makes for it — the compiled path, whose
// synthetic LTE and WiFi capacity traces each hold their points and a
// register-free 96 B PRNG (~650 B averaged over the population), and the
// controller (~300 B) — plus its summary row, its tickers and its jitter
// buffer: about 2.0 KB. The 4.9 KB PRNG register each synthetic trace
// once built put it at 6.1 KB, and building every session from nothing
// cost about 82 KB. Raise the budget only with a
// note of what allocates per session and why the shell cannot keep it.
const fleetAllocBudgetPerSession = 3 << 10

// mixedFleetAlloc returns the bytes a one-shard mixed fleet of n sessions
// allocates, the least of three runs so a stray runtime allocation cannot
// fail the gate.
func mixedFleetAlloc(t *testing.T, n int) uint64 {
	build, err := ScenarioBuild("mixed", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(Config{Sessions: n, Shards: 1, Workers: 1, Seed: 1, Build: build}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestFleetAllocPerSession gates the marginal allocation of a fleet
// session: the difference between a 400- and a 200-session one-shard
// fleet, per session. The shell's one-off setup and the shard's result
// slice cancel out, so what remains is what each session costs.
func TestFleetAllocPerSession(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	small, large := mixedFleetAlloc(t, 200), mixedFleetAlloc(t, 400)
	perSession := (float64(large) - float64(small)) / 200
	t.Logf("200 sessions %d B, 400 sessions %d B, marginal %.0f B per session", small, large, perSession)
	if perSession > fleetAllocBudgetPerSession {
		t.Fatalf("a fleet session allocates %.0f B, budget %d", perSession, fleetAllocBudgetPerSession)
	}
}
