package experiments

import (
	"runtime"
	"testing"
)

// cellAllocBudget bounds the heap bytes one more experiment cell
// allocates on a warm worker. The worker's shell keeps the session's
// ledger, timeline, packet slabs, FEC repair slabs and decoder ring, PRNG
// sources, rings, windows and the Summarizer its Report is selected in,
// and the worker keeps the Summarizer its cells' windowed reports use, so
// what a cell still allocates is the compiled drop path and the
// controller: a drop cell measures about 2.5 KB and a Figure 5 fec+nack
// cell about 2.0 KB. The budget is about twice that and below each
// known regression: a worker Summarizer rebuilt per cell costs a drop
// cell about 4.8 KB, a session Summarizer rebuilt per run about 18 KB, an
// FEC encoder rebuilt per session about 11 KB a fec+nack cell, and a
// fresh session per cell about 230 KB. Raise the budget only with a note
// of what allocates per cell and why the worker cannot keep it.
const cellAllocBudget = 4 << 10

// experimentAlloc returns the bytes one sequential run of an experiment
// over seeds allocates, the least of three runs so a stray runtime
// allocation cannot fail the gate. Each run has a Runner of its own: a
// Runner remembers the drop cells it has run, so a second Table 1 on it
// would run no session.
func experimentAlloc(seeds []int64, run func(r *Runner, seeds []int64)) uint64 {
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		r := &Runner{Workers: 1}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(r, seeds)
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// marginalCellAlloc returns the bytes each cell an experiment adds per
// seed allocates once its worker is warm: the difference between a
// two-seed and a one-seed sequential run, per added cell. The worker's
// one-off shells and scheduler cancel out.
func marginalCellAlloc(t *testing.T, cellsPerSeed int, run func(r *Runner, seeds []int64)) float64 {
	t.Helper()
	one, two := experimentAlloc([]int64{1}, run), experimentAlloc([]int64{1, 2}, run)
	perCell := (float64(two) - float64(one)) / float64(cellsPerSeed)
	t.Logf("%d cells %d B, %d cells %d B, marginal %.0f B per cell", cellsPerSeed, one, 2*cellsPerSeed, two, perCell)
	return perCell
}

// TestRunnerAllocPerCell gates the marginal allocation of an experiment
// cell: the difference between a two-seed and a one-seed sequential
// Table 1, per added cell. The worker's one-off shell and scheduler and
// the experiment's result slices cancel out, so what remains is what each
// drop cell costs once its worker is warm.
func TestRunnerAllocPerCell(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	perCell := marginalCellAlloc(t, len(DropMatrix())*2, func(r *Runner, seeds []int64) { r.Table1(seeds) })
	if perCell > cellAllocBudget {
		t.Fatalf("a drop cell allocates %.0f B, budget %d", perCell, cellAllocBudget)
	}
}

// TestFECCellAllocPerCell gates a Figure 5 fec+nack cell at 2% loss on a
// worker the same cell has warmed: the least of three runs, each building
// its config and controller as Figure 5 does. The FEC encoder, repairs,
// their Protected buffers and the decoder's group ring and received
// window all stay in the shell, so the cell costs what a drop cell does.
func TestFECCellAllocPerCell(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	cond := Figure5Conditions()[3]
	if cond.Random != 0.02 {
		t.Fatalf("condition 3 is %+v, want 2%% random loss", cond)
	}
	w := new(worker)
	if res := w.run(figure5Config(cond, ModeFECNACK, 1)); res.FECRecovered == 0 || res.Retransmitted == 0 {
		t.Fatalf("the fec+nack cell recovered %d packets and retransmitted %d", res.FECRecovered, res.Retransmitted)
	}
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w.run(figure5Config(cond, ModeFECNACK, 1))
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a warm fec+nack cell allocates %d B", best)
	if best > cellAllocBudget {
		t.Fatalf("a warm fec+nack cell allocates %d B, budget %d", best, cellAllocBudget)
	}
}

// TestFigure7AllocPerCell gates a Figure 7 cell, a two-flow run on a
// shared bottleneck, on a warm worker: the worker's shared shell keeps
// the bottleneck link, both flows' sessions and the demux, so a cell
// costs what two drop cells' controllers and configs do.
func TestFigure7AllocPerCell(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	perCell := marginalCellAlloc(t, 3, func(r *Runner, seeds []int64) { r.Figure7(seeds) })
	if perCell > cellAllocBudget {
		t.Fatalf("a Figure 7 cell allocates %.0f B, budget %d", perCell, cellAllocBudget)
	}
}

// TestFigure9AllocPerCell gates a Figure 9 cell, a one-sender,
// two-receiver SFU call, on a warm worker: the sender runs in the
// worker's shell, and the worker keeps the uplink, the node, both
// receivers with their clone pools and frame ledgers, and their
// downlinks.
func TestFigure9AllocPerCell(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	perCell := marginalCellAlloc(t, 2, func(r *Runner, seeds []int64) { r.Figure9(seeds) })
	if perCell > cellAllocBudget {
		t.Fatalf("a Figure 9 cell allocates %.0f B, budget %d", perCell, cellAllocBudget)
	}
}
