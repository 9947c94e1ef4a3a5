package experiments

import (
	"fmt"
	"testing"

	"rtcadapt/internal/trace"
)

// TestWarmWorkerMatchesFresh runs Figure 7's shared-bottleneck cells and
// Figure 9's SFU calls on one worker, with a drop cell between them, and
// requires every cell to measure exactly what it measures on a fresh
// worker. From cell to cell the sequence changes the pairing, the
// layer-selection mode and the seed, and it moves the worker's shell
// between the SFU's sender and a single-link session, so each cell runs
// in memory a differently shaped cell filled: the shared shell's link,
// sessions and demux, the SFU's links, node, receivers, clone pools and
// frame ledgers, and the shell's session.
func TestWarmWorkerMatchesFresh(t *testing.T) {
	traces := newFigure9Traces()
	bottleneck := trace.Constant(3e6)
	pairings := figure7Pairings()
	drop := DropMatrix()[len(DropMatrix())-1]
	cells := []struct {
		name string
		run  func(w *worker) any
	}{
		{"sfu off seed 1", func(w *worker) any { return w.figure9Cell(&traces, false, 1) }},
		{"shared adaptive+adaptive seed 1", func(w *worker) any { return w.figure7Cell(bottleneck, pairings[0], 1) }},
		{"sfu on seed 2", func(w *worker) any { return w.figure9Cell(&traces, true, 2) }},
		{"drop seed 4", func(w *worker) any { return w.runDrop(drop, KindAdaptive, 4).Report }},
		{"shared native+native seed 3", func(w *worker) any { return w.figure7Cell(bottleneck, pairings[2], 3) }},
		{"sfu off seed 3", func(w *worker) any { return w.figure9Cell(&traces, false, 3) }},
		{"shared adaptive+native seed 2", func(w *worker) any { return w.figure7Cell(bottleneck, pairings[1], 2) }},
		{"sfu on seed 1", func(w *worker) any { return w.figure9Cell(&traces, true, 1) }},
		{"drop seed 5", func(w *worker) any { return w.runDrop(drop, KindNative, 5).Report }},
	}
	warm := new(worker)
	for _, c := range cells {
		// %+v prints every float in its shortest exact form.
		got, want := fmt.Sprintf("%+v", c.run(warm)), fmt.Sprintf("%+v", c.run(new(worker)))
		if got != want {
			t.Fatalf("%s: a warm worker measures\n%s\na fresh one\n%s", c.name, got, want)
		}
	}
}
