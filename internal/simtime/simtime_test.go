package simtime

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(30*time.Millisecond, func() { got = append(got, 3) })
	s.At(10*time.Millisecond, func() { got = append(got, 1) })
	s.At(20*time.Millisecond, func() { got = append(got, 2) })
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
	if s.Now() != 30*time.Millisecond {
		t.Errorf("Now() = %v, want 30ms", s.Now())
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5*time.Millisecond, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events out of order: got %v", got)
		}
	}
}

func TestSchedulerAfter(t *testing.T) {
	s := NewScheduler()
	var at time.Duration
	s.At(10*time.Millisecond, func() {
		s.After(5*time.Millisecond, func() { at = s.Now() })
	})
	s.Run()
	if at != 15*time.Millisecond {
		t.Errorf("nested After fired at %v, want 15ms", at)
	}
}

func TestSchedulerNegativeAfterClamped(t *testing.T) {
	s := NewScheduler()
	fired := false
	s.After(-time.Second, func() { fired = true })
	s.Run()
	if !fired {
		t.Error("event with negative delay never fired")
	}
	if s.Now() != 0 {
		t.Errorf("clock moved to %v, want 0", s.Now())
	}
}

// TestSchedulerAfterSaturates pins that a delay reaching past the largest
// representable deadline schedules at that deadline instead of wrapping
// now+d negative and panicking as a past event.
func TestSchedulerAfterSaturates(t *testing.T) {
	s := NewScheduler()
	s.After(time.Second, func() {})
	s.Step()
	var fired []time.Duration
	s.After(math.MaxInt64, func() { fired = append(fired, s.Now()) })
	s.AfterArg(math.MaxInt64-time.Millisecond, func(any) { fired = append(fired, s.Now()) }, nil)
	s.Run()
	if len(fired) != 2 || fired[0] != maxDeadline || fired[1] != maxDeadline {
		t.Fatalf("saturated events fired at %v, want both at %v", fired, maxDeadline)
	}
}

// TestTickerRearmSaturates pins the same for a ticker whose next deadline
// overflows: it fires once at the largest representable deadline and then
// stops, so Run returns on its own.
func TestTickerRearmSaturates(t *testing.T) {
	s := NewScheduler()
	interval := maxDeadline/2 + time.Hour
	var ticks []time.Duration
	s.Tick(interval, func() { ticks = append(ticks, s.Now()) })
	s.Run()
	if len(ticks) != 2 || ticks[0] != interval || ticks[1] != maxDeadline {
		t.Fatalf("ticks at %v, want [%v %v]", ticks, interval, maxDeadline)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after the saturated tick, want 0", s.Len())
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(10*time.Millisecond, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	s.At(5*time.Millisecond, func() {})
}

func TestSchedulerNilCallbackPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	s.At(time.Millisecond, nil)
}

func TestEventCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	ev := s.At(10*time.Millisecond, func() { fired = true })
	if !ev.Cancel() {
		t.Error("first Cancel returned false")
	}
	if ev.Cancel() {
		t.Error("second Cancel returned true")
	}
	s.Run()
	if fired {
		t.Error("canceled event fired")
	}
	if !ev.Canceled() {
		t.Error("Canceled() = false after Cancel")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := NewScheduler()
	fired := 0
	s.At(10*time.Millisecond, func() { fired++ })
	s.At(30*time.Millisecond, func() { fired++ })
	s.RunUntil(20 * time.Millisecond)
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if s.Now() != 20*time.Millisecond {
		t.Errorf("Now() = %v, want 20ms", s.Now())
	}
	s.RunUntil(40 * time.Millisecond)
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
}

func TestRunUntilInclusiveBoundary(t *testing.T) {
	s := NewScheduler()
	fired := false
	s.At(20*time.Millisecond, func() { fired = true })
	s.RunUntil(20 * time.Millisecond)
	if !fired {
		t.Error("event exactly at the RunUntil boundary did not fire")
	}
}

func TestStop(t *testing.T) {
	s := NewScheduler()
	fired := 0
	s.At(1*time.Millisecond, func() { fired++; s.Stop() })
	s.At(2*time.Millisecond, func() { fired++ })
	s.Run()
	if fired != 1 {
		t.Errorf("fired = %d after Stop, want 1", fired)
	}
	if !s.Stopped() {
		t.Error("Stopped() = false")
	}
}

func TestPeek(t *testing.T) {
	s := NewScheduler()
	if _, ok := s.Peek(); ok {
		t.Error("Peek on empty queue reported an event")
	}
	ev := s.At(10*time.Millisecond, func() {})
	s.At(20*time.Millisecond, func() {})
	if at, ok := s.Peek(); !ok || at != 10*time.Millisecond {
		t.Errorf("Peek = %v,%v want 10ms,true", at, ok)
	}
	ev.Cancel()
	if at, ok := s.Peek(); !ok || at != 20*time.Millisecond {
		t.Errorf("Peek after cancel = %v,%v want 20ms,true", at, ok)
	}
}

func TestTicker(t *testing.T) {
	s := NewScheduler()
	var ticks []time.Duration
	tk := s.Tick(10*time.Millisecond, func() {
		ticks = append(ticks, s.Now())
	})
	s.RunUntil(35 * time.Millisecond)
	tk.Stop()
	s.RunUntil(100 * time.Millisecond)
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3 (%v)", len(ticks), ticks)
	}
	for i, at := range ticks {
		want := time.Duration(i+1) * 10 * time.Millisecond
		if at != want {
			t.Errorf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	s := NewScheduler()
	n := 0
	var tk *Ticker
	tk = s.Tick(time.Millisecond, func() {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	s.RunUntil(time.Second)
	if n != 2 {
		t.Errorf("ticked %d times, want 2", n)
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the clock never goes backwards.
func TestSchedulerMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewScheduler()
		var fireTimes []time.Duration
		for _, d := range delays {
			s.At(time.Duration(d)*time.Microsecond, func() {
				fireTimes = append(fireTimes, s.Now())
			})
		}
		s.Run()
		if len(fireTimes) != len(delays) {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Len never exceeds the number of scheduled events and reaches
// zero after Run.
func TestSchedulerDrainProperty(t *testing.T) {
	f := func(delays []uint8) bool {
		s := NewScheduler()
		for _, d := range delays {
			s.After(time.Duration(d)*time.Millisecond, func() {})
		}
		if s.Len() != len(delays) {
			return false
		}
		s.Run()
		return s.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
