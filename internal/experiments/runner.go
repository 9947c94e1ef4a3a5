package experiments

import (
	"runtime"
	"sync"

	"rtcadapt/internal/metrics"
	"rtcadapt/internal/session"
	"rtcadapt/internal/simtime"
)

// Runner executes an experiment's cells — every (scenario, controller,
// seed) combination — on a bounded worker pool. Sessions are pure
// functions of (config, seed), so cells can run in any order on any
// number of goroutines; the runner merges results keyed by cell index
// (never by completion order), which makes parallel output byte-identical
// to a sequential run.
//
// Each worker goroutine runs its cells one after another in memory it
// owns for one experiment call (see worker): a session shell, a shell for
// shared-bottleneck runs, an SFU call's parts and the scheduler they run
// on. A cell rebuilds the previous cell's sessions in place instead of
// allocating them; a recycled run is byte-identical to a fresh one. The
// workers are dropped when the call returns: a Runner holds no shell.
//
// A Runner remembers the drop cells it has run — one session per
// (drop, controller, seed), kept as its post-drop and whole-session
// reports — so Table 1, Table 2 and Figure 2 share the sessions they have
// in common instead of running them again. A remembered cell still counts
// towards Progress.
//
// The zero value runs on GOMAXPROCS workers with no progress reporting;
// Runner{Workers: 1} reproduces the fully sequential path. A Runner may
// be reused across experiments and goroutines; it must not be copied
// after first use.
type Runner struct {
	// Workers bounds the number of concurrently running sessions.
	// Zero or negative means runtime.GOMAXPROCS(0).
	Workers int
	// Progress, when non-nil, is called after each finished cell with
	// the number of cells completed so far, the cell count of the
	// current experiment, and a human-readable cell label. Calls are
	// serialized (never concurrent) but, under parallelism, arrive in
	// completion order, not cell order.
	Progress func(done, total int, label string)

	mu    sync.Mutex
	drops map[dropKey]dropReports
}

// dropKey is what a drop cell's session depends on: runDrop's inputs.
// The scenario's Name is cleared, since it is only a label.
type dropKey struct {
	sc   DropScenario
	kind ControllerKind
	seed int64
}

// dropReports is what the drop-cell experiments read from a session.
type dropReports struct {
	// post covers the PostDropWindow after the drop; session the whole
	// session.
	post, session metrics.Report
}

// drop returns the reports of one drop cell, running its session in w's
// shell unless the runner has run it before. A nil runner remembers
// nothing.
func (r *Runner) drop(w *worker, sc DropScenario, kind ControllerKind, seed int64) dropReports {
	key := dropKey{sc: sc, kind: kind, seed: seed}
	key.sc.Name = ""
	if r != nil {
		r.mu.Lock()
		rep, ok := r.drops[key]
		r.mu.Unlock()
		if ok {
			return rep
		}
	}
	res := w.runDrop(sc, kind, seed)
	rep := dropReports{post: w.postDrop(sc, res), session: res.Report}
	if r != nil {
		r.mu.Lock()
		if r.drops == nil {
			r.drops = make(map[dropKey]dropReports)
		}
		r.drops[key] = rep
		r.mu.Unlock()
	}
	return rep
}

// workers resolves the effective pool size.
func (r *Runner) workers() int {
	if r == nil || r.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return r.Workers
}

// Map evaluates fn(i) for every index in [0, n) on the runner's worker
// pool and returns the results indexed by i. It is the exported face of
// mapCells for other harnesses (the fleet runner maps shards through it):
// results land in slots keyed by index, never by completion order, so
// aggregation in canonical order is byte-identical at any worker count.
// label(i) names unit i for progress reporting and may be nil when the
// runner has no Progress callback.
func Map[T any](r *Runner, n int, label func(int) string, fn func(int) T) []T {
	return mapCells(r, n, label, func(_ *worker, i int) T { return fn(i) })
}

// worker is one pool goroutine's session memory, kept for the length of
// one mapCells call: a shell for single-link sessions (and the SFU's
// sender), the Summarizer its cells reduce ledgers with, and, built on
// first use, the scheduler every run is on, a shared-bottleneck shell
// (Figure 7) and an SFU call's parts (Figure 9). Every cell of the
// figure suite runs in this memory.
type worker struct {
	shell  session.Shell
	sched  *simtime.Scheduler
	summ   metrics.Summarizer
	shared *session.SharedShell
	call   *sfuCall
}

// resetSched readies the worker's scheduler for the next run: built on
// first use, Reset after.
func (w *worker) resetSched() {
	if w.sched == nil {
		w.sched = simtime.NewScheduler()
	} else {
		w.sched.Reset()
	}
}

// run executes cfg in the worker's shell. The Result is borrowed: its
// Records and Timeline are overwritten by the worker's next run, so a
// cell reduces it, or copies what it keeps, before returning.
func (w *worker) run(cfg session.Config) session.Result {
	w.resetSched()
	return w.shell.RunBorrowed(w.sched, cfg)
}

// mapCells evaluates fn(w, i) for every cell index in [0, n) on the
// runner's worker pool and returns the results indexed by cell. w is the
// calling goroutine's own worker. Because the output slot is determined
// by the cell index alone, callers aggregate in canonical order
// regardless of which goroutine finished first. label(i) names cell i for
// progress reporting; it is only invoked when the runner has a Progress
// callback.
func mapCells[T any](r *Runner, n int, label func(int) string, fn func(w *worker, i int) T) []T {
	out := make([]T, n)
	workers := r.workers()
	if workers > n {
		workers = n
	}

	var mu sync.Mutex
	done := 0
	report := func(i int) {
		if r == nil || r.Progress == nil {
			return
		}
		mu.Lock()
		done++
		r.Progress(done, n, label(i))
		mu.Unlock()
	}

	if workers <= 1 {
		w := new(worker)
		for i := 0; i < n; i++ {
			out[i] = fn(w, i)
			report(i)
		}
		return out
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := new(worker)
			for i := range idx {
				out[i] = fn(w, i)
				report(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}
