package simtime

import (
	"runtime"
	"testing"
	"time"
)

// TestCancelReleasesPayload pins the satellite bugfix: canceling an event
// must drop the callback (and everything it captures) immediately, not at
// the event's deadline. The canceled record's fn is nil and a finalizer on
// the captured payload observes collection while the deadline is still far
// in the future.
func TestCancelReleasesPayload(t *testing.T) {
	s := NewScheduler()
	collected := make(chan struct{})
	ev := func() Event {
		payload := make([]byte, 1<<20)
		runtime.SetFinalizer(&payload[0], func(*byte) { close(collected) })
		return s.At(time.Hour, func() { _ = payload[0] })
	}()
	if !ev.Cancel() {
		t.Fatal("Cancel returned false on a pending event")
	}
	if ev.ev.fn != nil {
		t.Error("canceled event still holds its callback closure")
	}
	if ev.ev.arg != nil {
		t.Error("canceled event still holds its arg")
	}
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		default:
		}
	}
	t.Error("canceled event's captured payload was never collected")
}

// TestCancelTightensLen pins the eager-drop accounting: Cancel removes the
// event from the queue immediately, so Len is exact, not an upper bound.
func TestCancelTightensLen(t *testing.T) {
	s := NewScheduler()
	evs := make([]Event, 10)
	for i := range evs {
		evs[i] = s.At(time.Duration(i+1)*time.Millisecond, func() {})
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
	// Cancel out of order to exercise removal from inside the queue.
	for i, idx := range []int{5, 0, 9, 3, 7} {
		if !evs[idx].Cancel() {
			t.Fatalf("Cancel #%d returned false", idx)
		}
		if got, want := s.Len(), 10-(i+1); got != want {
			t.Errorf("Len after %d cancels = %d, want %d", i+1, got, want)
		}
	}
	fired := 0
	for s.Step() {
		fired++
	}
	if fired != 5 {
		t.Errorf("fired %d events, want 5", fired)
	}
}

// TestStaleHandleAfterReuse pins the generation counters: once an event
// fires and its pooled record is recycled for a new event, the old handle
// must not cancel the new tenant.
func TestStaleHandleAfterReuse(t *testing.T) {
	s := NewScheduler()
	first := s.At(time.Millisecond, func() {})
	s.Run()
	if first.Pending() {
		t.Error("fired event still Pending")
	}
	if first.Cancel() {
		t.Error("Cancel succeeded on a fired event")
	}
	second := s.At(2*time.Millisecond, func() {})
	if second.ev != first.ev {
		t.Fatalf("pool did not recycle the record (test needs the shared-record case)")
	}
	if first.Cancel() {
		t.Error("stale handle canceled the record's new tenant")
	}
	if !second.Pending() {
		t.Error("new event lost its pending state to a stale handle")
	}
	if !second.Cancel() {
		t.Error("current handle failed to cancel its own event")
	}
}

// TestZeroValueEventHandle pins that the zero handle is inert.
func TestZeroValueEventHandle(t *testing.T) {
	var ev Event
	if ev.Pending() || ev.Cancel() || ev.Canceled() {
		t.Error("zero-value Event handle is not inert")
	}
	if ev.At() != 0 {
		t.Errorf("zero-value At() = %v, want 0", ev.At())
	}
}

// TestAtArgDispatch pins the closure-free dispatch path end to end,
// including FIFO interleaving with closure events at the same instant.
func TestAtArgDispatch(t *testing.T) {
	s := NewScheduler()
	var got []int
	rec := &got
	s.AtArg(5*time.Millisecond, func(a any) { p := a.(*[]int); *p = append(*p, 1) }, rec)
	s.At(5*time.Millisecond, func() { got = append(got, 2) })
	s.AfterArg(5*time.Millisecond, func(a any) { p := a.(*[]int); *p = append(*p, 3) }, rec)
	s.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestAtArgNilCallbackPanics mirrors the At nil-callback contract.
func TestAtArgNilCallbackPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Error("nil AtArg callback did not panic")
		}
	}()
	s.AtArg(time.Millisecond, nil, nil)
}

// TestPoolRecycling pins steady-state pool behavior: a schedule/fire churn
// far longer than the peak queue depth must not grow the record population
// beyond that peak (i.e. records genuinely recycle).
func TestPoolRecycling(t *testing.T) {
	s := NewScheduler()
	const depth = 8
	for i := 0; i < depth; i++ {
		s.After(time.Duration(i)*time.Microsecond, func() {})
	}
	for i := 0; i < 10_000; i++ {
		s.Step()
		s.After(time.Microsecond, func() {})
	}
	s.Run()
	if got := s.minted; got > depth+1 {
		t.Errorf("pool minted %d records after churn at depth %d; records are not recycling", got, depth)
	}
}

// stepBenchFn reschedules itself through the arg path; used by both the
// zero-alloc gate and BenchmarkSchedulerStep.
func stepBenchFn(a any) {
	s := a.(*Scheduler)
	s.AfterArg(100*time.Microsecond, stepBenchFn, a)
}

// TestSchedulerStepZeroAlloc is the alloc-budget gate for the scheduler
// hot path.
//
// Budget: 0 allocs/op. One Step pops a pooled record, dispatches through
// func(any), and the self-rescheduling callback acquires the record right
// back — nothing on that cycle may touch the heap allocator. If a future
// change needs an allocation here it is paying that cost on every simulated
// event across every experiment; raise this budget only with a benchmark
// showing the regression is bought back elsewhere.
func TestSchedulerStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under -race")
	}
	// The "wheel" subtest keeps the name it had when a heap queue was
	// measured beside it.
	t.Run("wheel", func(t *testing.T) {
		s := NewScheduler()
		s.AfterArg(0, stepBenchFn, s)
		for i := 0; i < 1024; i++ { // warm the pool and queue arrays
			s.Step()
		}
		allocs := testing.AllocsPerRun(1000, func() { s.Step() })
		if allocs != 0 {
			t.Errorf("Scheduler.Step allocates %.1f/op in steady state, budget is 0", allocs)
		}
	})
}
