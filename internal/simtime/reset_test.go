package simtime

import (
	"fmt"
	"testing"
	"time"
)

// TestResetRestartsCleanly pins the fleet reuse contract: after Reset, a
// scheduler behaves exactly like a freshly constructed one — clock at
// zero, queue empty, sequence counter restarted — so a workload run on a
// recycled scheduler is indistinguishable from one run on a new
// scheduler.
func TestResetRestartsCleanly(t *testing.T) {
	workload := func(s *Scheduler) []time.Duration {
		var fired []time.Duration
		s.At(3*time.Millisecond, func() { fired = append(fired, s.Now()) })
		s.At(time.Millisecond, func() {
			fired = append(fired, s.Now())
			s.After(time.Millisecond, func() { fired = append(fired, s.Now()) })
		})
		s.Run()
		return fired
	}

	reused := NewScheduler()
	// Dirty the scheduler: advance the clock, burn sequence numbers,
	// leave pending events and a Stop in effect.
	reused.At(time.Millisecond, func() {})
	reused.At(2*time.Millisecond, func() { reused.Stop() })
	reused.At(time.Hour, func() { t.Error("leftover event fired after Reset") })
	reused.Run()
	reused.Reset()

	if reused.Now() != 0 {
		t.Fatalf("Now after Reset = %v, want 0", reused.Now())
	}
	if reused.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", reused.Len())
	}

	got := workload(reused)
	want := workload(NewScheduler())
	if len(got) != len(want) {
		t.Fatalf("reused scheduler fired %d events, fresh fired %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("firing %d at %v on reused scheduler, %v on fresh", i, got[i], want[i])
		}
	}
}

// TestResetKeepsPoolWarm pins the reason Reset exists at all (versus
// constructing a new scheduler per fleet session): the event records of
// the abandoned queue return to the free list instead of being dropped
// for the collector.
func TestResetKeepsPoolWarm(t *testing.T) {
	s := NewScheduler()
	const depth = 16
	for i := 0; i < depth; i++ {
		s.After(time.Duration(i+1)*time.Millisecond, func() {})
	}
	s.Reset()
	if got := len(freeList(s)); got < depth {
		t.Errorf("pool holds %d records after Reset, want >= %d (queue must recycle, not leak)", got, depth)
	}
	// Stale handles into the pre-Reset world must be inert.
	ev := s.At(time.Millisecond, func() {})
	s.Reset()
	if ev.Cancel() {
		t.Error("stale handle canceled into a Reset scheduler")
	}
	if ev.Pending() {
		t.Error("stale handle still Pending after Reset")
	}
}

// TestResetInBothModes resets a scheduler once with its queue in the
// shallow-queue array and once spilled into the wheel. In both, every
// record returns to the free list, outstanding handles go stale, the
// queue is empty and back in array mode, and a rerun on the poisoned pool
// fires in the same order as a fresh scheduler.
func TestResetInBothModes(t *testing.T) {
	// workload schedules depth events with same-instant ties and returns
	// the firing order by tag.
	workload := func(s *Scheduler, depth int) []int {
		var got []int
		for i := 0; i < depth; i++ {
			i := i
			s.At(time.Duration(i%7)*time.Millisecond, func() { got = append(got, i) })
		}
		s.Run()
		return got
	}
	for _, tc := range []struct {
		name    string
		depth   int
		spilled bool
	}{
		{"array", nearMax, false},
		{"wheel", 40, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheduler()
			s.After(time.Millisecond, func() {})
			s.Step() // move the clock off zero
			handles := make([]Event, tc.depth)
			for i := range handles {
				handles[i] = s.After(time.Duration(i%5)*time.Millisecond, func() {
					t.Errorf("event from pre-Reset life fired at %v", s.Now())
				})
			}
			if s.wheel.spilled != tc.spilled {
				t.Fatalf("with %d pending, spilled = %v, want %v", tc.depth, s.wheel.spilled, tc.spilled)
			}
			s.Reset()
			if s.Len() != 0 || s.Now() != 0 || s.wheel.spilled {
				t.Fatalf("after Reset: Len=%d Now=%v spilled=%v, want 0, 0, false", s.Len(), s.Now(), s.wheel.spilled)
			}
			if n := len(freeList(s)); n != s.minted {
				t.Fatalf("free list holds %d of %d minted records after Reset", n, s.minted)
			}
			for i, h := range handles {
				if h.Pending() || h.Cancel() {
					t.Fatalf("handle %d still live after Reset", i)
				}
			}
			poisonFreeEvents(t, s)
			for _, depth := range []int{tc.depth, 40} {
				got, want := workload(s, depth), workload(NewScheduler(), depth)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("depth %d: reused scheduler fired %v, fresh fired %v", depth, got, want)
				}
				s.Reset()
			}
		})
	}
}
