package experiments

import (
	"fmt"
	"sync"
	"testing"
)

// TestParallelMatchesSequential is the runner's guarantee: cells merge in
// canonical order, and a cell's result does not depend on which cells ran
// before it in its worker's shell. It runs every experiment of
// `benchdrop -exp all` on one worker and on three and requires identical
// typed results. On one worker each cell of an experiment runs in the
// shell the cell before it left; on three, each worker runs a different
// subset, so FEC, NACK, burst-loss, estimator and resolution-ladder
// sessions each inherit memory shaped by different predecessors.
func TestParallelMatchesSequential(t *testing.T) {
	exps := []struct {
		id  string
		run func(r *Runner) any
	}{
		{"figure1", func(r *Runner) any { return r.Figure1(1) }},
		{"table1", func(r *Runner) any { return r.Table1(quickSeeds) }},
		{"table2", func(r *Runner) any { return r.Table2(quickSeeds) }},
		{"figure2", func(r *Runner) any { return r.Figure2(quickSeeds) }},
		{"figure3", func(r *Runner) any { return r.Figure3(quickSeeds) }},
		{"table3", func(r *Runner) any { return r.Table3(quickSeeds) }},
		{"figure4", func(r *Runner) any { return r.Figure4(quickSeeds) }},
		{"figure5", func(r *Runner) any { return r.Figure5(quickSeeds) }},
		{"figure6", func(r *Runner) any { return r.Figure6(quickSeeds) }},
		{"figure7", func(r *Runner) any { return r.Figure7(quickSeeds) }},
		{"figure8", func(r *Runner) any { return r.Figure8(quickSeeds) }},
		{"figure9", func(r *Runner) any { return r.Figure9(quickSeeds) }},
		{"figure10", func(r *Runner) any { return r.Figure10(quickSeeds) }},
	}
	seq := &Runner{Workers: 1}
	par := &Runner{Workers: 3}
	for _, e := range exps {
		// %+v prints every float in its shortest exact form, and NaN
		// equal to itself.
		want := fmt.Sprintf("%+v", e.run(seq))
		if got := fmt.Sprintf("%+v", e.run(par)); got != want {
			t.Errorf("%s: three workers diverge from one:\n--- three ---\n%s\n--- one ---\n%s", e.id, got, want)
		}
	}
}

// TestRunnerProgress checks the progress callback fires once per cell with
// a monotonically increasing done count ending at total.
func TestRunnerProgress(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	lastDone := 0
	r := &Runner{
		Workers: 4,
		Progress: func(done, total int, label string) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if done != lastDone+1 {
				t.Errorf("done jumped %d -> %d", lastDone, done)
			}
			lastDone = done
			if total != len(Kinds())*len(quickSeeds) {
				t.Errorf("total = %d", total)
			}
			if label == "" {
				t.Error("empty progress label")
			}
		},
	}
	r.Figure3(quickSeeds)
	want := len(Kinds()) * len(quickSeeds)
	if calls != want {
		t.Errorf("progress fired %d times, want %d", calls, want)
	}
}

// TestDefaultSeedsIsACopy guards the fix for the old mutable package-level
// slice: mutating one call's result must not leak into the next.
func TestDefaultSeedsIsACopy(t *testing.T) {
	a := DefaultSeeds()
	for i := range a {
		a[i] = -1
	}
	b := DefaultSeeds()
	if fmt.Sprint(b) != fmt.Sprint([]int64{1, 2, 3, 4, 5}) {
		t.Fatalf("DefaultSeeds after caller mutation = %v", b)
	}
}

// TestNilRunnerWrappers checks the package-level wrappers drive a usable
// default runner.
func TestNilRunnerWrappers(t *testing.T) {
	series := Figure3(quickSeeds)
	if len(series) == 0 {
		t.Fatal("wrapper Figure3 returned no series")
	}
	for _, s := range series {
		if len(s.DelaysMs) != len(s.Fractions) {
			t.Errorf("%s: CDF arms differ: %d vs %d", s.Kind, len(s.DelaysMs), len(s.Fractions))
		}
	}
}

// TestRunnerReusesDropCells checks the drop-cell memo: Table 2 and
// Figure 2 on a Runner that already ran Table 1 must equal the same
// experiments on a fresh Runner, at one worker and at three. Table 1
// leaves one remembered cell per (drop, controller, seed); Table 2 adds
// none, so it ran no session, and Figure 2 adds all but the 20 cells its
// 40% and 60% severities share with Table 1's 2.5->1.5 and 2.5->1.0
// talking-head rows. Every cell, remembered or not, reports progress.
func TestRunnerReusesDropCells(t *testing.T) {
	seeds := DefaultSeeds()
	fresh := &Runner{Workers: 1}
	wantT2 := fmt.Sprintf("%+v", fresh.Table2(seeds))
	wantF2 := fmt.Sprintf("%+v", (&Runner{Workers: 1}).Figure2(seeds))
	table1Cells := len(DropMatrix()) * 2 * len(seeds)
	figure2Cells := 8 * 2 * len(seeds)
	shared := 2 * 2 * len(seeds)
	for _, workers := range []int{1, 3} {
		var mu sync.Mutex
		calls := 0
		r := &Runner{Workers: workers, Progress: func(int, int, string) {
			mu.Lock()
			calls++
			mu.Unlock()
		}}
		remembered := func() int {
			r.mu.Lock()
			defer r.mu.Unlock()
			return len(r.drops)
		}
		r.Table1(seeds)
		if n := remembered(); n != table1Cells {
			t.Fatalf("workers %d: %d cells remembered after Table 1, want %d", workers, n, table1Cells)
		}
		calls = 0
		if got := fmt.Sprintf("%+v", r.Table2(seeds)); got != wantT2 {
			t.Errorf("workers %d: Table 2 after Table 1 differs from a fresh runner's:\n%s\n%s", workers, got, wantT2)
		}
		if n := remembered(); n != table1Cells {
			t.Fatalf("workers %d: %d cells remembered after Table 2, want %d: it ran sessions", workers, n, table1Cells)
		}
		if calls != table1Cells {
			t.Errorf("workers %d: Table 2 reported progress %d times, want %d", workers, calls, table1Cells)
		}
		if got := fmt.Sprintf("%+v", r.Figure2(seeds)); got != wantF2 {
			t.Errorf("workers %d: Figure 2 after Table 1 differs from a fresh runner's:\n%s\n%s", workers, got, wantF2)
		}
		if n, want := remembered(), table1Cells+figure2Cells-shared; n != want {
			t.Fatalf("workers %d: %d cells remembered after Figure 2, want %d", workers, n, want)
		}
	}
}
