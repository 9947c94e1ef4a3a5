package experiments

import (
	"runtime"
	"sync"
)

// Runner executes an experiment's cells — every (scenario, controller,
// seed) combination — on a bounded worker pool. Sessions are pure
// functions of (config, seed), so cells can run in any order on any
// number of goroutines; the runner merges results keyed by cell index
// (never by completion order), which makes parallel output byte-identical
// to a sequential run.
//
// The zero value runs on GOMAXPROCS workers with no progress reporting;
// Runner{Workers: 1} reproduces the fully sequential path. A Runner is
// stateless configuration and may be reused across experiments and
// goroutines.
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
	return mapCells(r, n, label, fn)
}

// mapCells evaluates fn(i) for every cell index in [0, n) on the runner's
// worker pool and returns the results indexed by cell. Because the output
// slot is determined by the cell index alone, callers aggregate in
// canonical order regardless of which goroutine finished first. label(i)
// names cell i for progress reporting; it is only invoked when the runner
// has a Progress callback.
func mapCells[T any](r *Runner, n int, label func(int) string, fn func(int) T) []T {
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
		for i := 0; i < n; i++ {
			out[i] = fn(i)
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
			for i := range idx {
				out[i] = fn(i)
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
