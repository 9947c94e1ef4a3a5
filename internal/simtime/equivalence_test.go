package simtime

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// Differential harness: the wheel must fire the exact same (at, seq)-ordered
// event sequence as refSched, a reference model too plain to be wrong. These
// tests drive both through identical op streams and compare the resulting
// fire logs; FuzzSchedulerEquivalence feeds the same interpreter with
// fuzzer-chosen bytes.

// refSched is the reference model: an unordered slice of pending events,
// scanned in full for the minimum (at, seq) on every step. It shares no
// code with the production queue (no arena, free list, wheel or
// eventHeap), so a bug in one cannot hide in the other.
type refSched struct {
	now     time.Duration
	seq     uint64
	pending []*refEvent
}

// refEvent is one scheduled callback; a pointer to it is the handle. The
// model never recycles events, so a fired, canceled or reset event's
// handle simply finds it no longer queued.
type refEvent struct {
	at     time.Duration
	seq    uint64
	fn     func()
	queued bool
}

func (r *refSched) Now() time.Duration { return r.now }

func (r *refSched) Len() int { return len(r.pending) }

func (r *refSched) at(t time.Duration, fn func()) func() bool {
	if t < r.now {
		panic("refSched: event scheduled in the past")
	}
	ev := &refEvent{at: t, seq: r.seq, fn: fn, queued: true}
	r.seq++
	r.pending = append(r.pending, ev)
	return func() bool {
		if !ev.queued {
			return false
		}
		r.remove(ev)
		return true
	}
}

// remove drops ev from the pending slice and marks its handle stale.
func (r *refSched) remove(ev *refEvent) {
	for i, p := range r.pending {
		if p == ev {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			ev.queued = false
			return
		}
	}
	panic("refSched: queued event missing from the pending slice")
}

// step fires the minimum (at, seq) event if it is due by limit.
func (r *refSched) step(limit time.Duration) bool {
	var min *refEvent
	for _, ev := range r.pending {
		if min == nil || ev.at < min.at || ev.at == min.at && ev.seq < min.seq {
			min = ev
		}
	}
	if min == nil || min.at > limit {
		return false
	}
	r.remove(min)
	r.now = min.at
	min.fn()
	return true
}

func (r *refSched) Step() bool { return r.step(math.MaxInt64) }

func (r *refSched) RunUntil(t time.Duration) {
	for r.step(t) {
	}
	if r.now < t {
		r.now = t
	}
}

func (r *refSched) Run() {
	for r.Step() {
	}
}

func (r *refSched) Reset() {
	for _, ev := range r.pending {
		ev.queued = false
	}
	*r = refSched{}
}

// opTarget is the slice of the scheduler API that opRunner drives; at
// schedules fn and returns the event's cancel function.
type opTarget interface {
	Now() time.Duration
	Len() int
	at(t time.Duration, fn func()) func() bool
	Step() bool
	RunUntil(t time.Duration)
	Run()
	Reset()
}

// wheelTarget adapts the production Scheduler to opTarget.
type wheelTarget struct{ *Scheduler }

func (w wheelTarget) at(t time.Duration, fn func()) func() bool { return w.At(t, fn).Cancel }

// fireLog records one callback invocation: which scheduled op fired and
// what the clock read.
type fireLog struct {
	tag int
	now time.Duration
}

// opRunner interprets a byte stream as scheduler operations and returns
// the complete fire log. Each op consumes two bytes (opcode, operand).
// Horizons stretch exponentially with the operand so streams exercise
// every wheel level and the overflow heap, not just the first window.
func opRunner(s opTarget, ops []byte) []fireLog {
	var log []fireLog
	var cancels []func() bool
	tag := 0
	for i := 0; i+1 < len(ops); i += 2 {
		op, val := ops[i], ops[i+1]
		switch op % 8 {
		case 0, 1, 2: // schedule: horizons from ~1 µs to far past the top window
			d := time.Duration(val%16+1) * time.Microsecond << (val % 34)
			k := tag
			cancels = append(cancels, s.at(s.Now()+d, func() {
				log = append(log, fireLog{tag: k, now: s.Now()})
			}))
			tag++
		case 3: // schedule a same-instant burst (FIFO tie-break coverage)
			at := s.Now() + time.Duration(val)*time.Millisecond
			for j := 0; j < 3; j++ {
				k := tag
				cancels = append(cancels, s.at(at, func() {
					log = append(log, fireLog{tag: k, now: s.Now()})
				}))
				tag++
			}
		case 4: // cancel an arbitrary handle (stale ones are no-ops)
			if len(cancels) > 0 {
				cancels[int(val)%len(cancels)]()
			}
		case 5: // fire one event
			s.Step()
		case 6: // run a bounded stretch of virtual time
			s.RunUntil(s.Now() + time.Duration(val)*33*time.Microsecond)
		case 7: // reset, rarely: it wipes the queue, which would make
			// most streams trivial if it were as likely as scheduling
			if val == 0 {
				s.Reset()
			} else {
				s.Step()
			}
		}
	}
	s.Run()
	return log
}

// diffModel runs the op stream on the wheel and on the reference model
// and reports the first divergence, if any.
func diffModel(t *testing.T, ops []byte) {
	t.Helper()
	wheel := wheelTarget{NewScheduler()}
	model := &refSched{}
	gotW := opRunner(wheel, ops)
	gotM := opRunner(model, ops)
	if len(gotW) != len(gotM) {
		t.Fatalf("wheel fired %d events, model fired %d", len(gotW), len(gotM))
	}
	for i := range gotW {
		if gotW[i] != gotM[i] {
			t.Fatalf("fire %d diverges: wheel {tag %d at %v}, model {tag %d at %v}",
				i, gotW[i].tag, gotW[i].now, gotM[i].tag, gotM[i].now)
		}
	}
	if wheel.Now() != model.Now() {
		t.Fatalf("final clocks diverge: wheel %v, model %v", wheel.Now(), model.Now())
	}
	if wheel.Len() != model.Len() {
		t.Fatalf("final Len diverges: wheel %d, model %d", wheel.Len(), model.Len())
	}
}

// TestWheelMatchesModelRandomOps drives the wheel and the reference model
// through seeded random op streams. This is the cheap always-on cousin of
// FuzzSchedulerEquivalence. The streams grow the queue past the
// shallow-queue array, so they cover the array, the spill and the wheel.
func TestWheelMatchesModelRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ops := make([]byte, 400)
			for i := range ops {
				ops[i] = byte(rng.Intn(256))
			}
			diffModel(t, ops)
		})
	}
}

// TestSchedulerBehaviorBothImpls pins the core scheduler contract in one
// pass: deadline order, FIFO among same-instant events, eager cancel, and
// Reset. One queue runs now, the shallow-queue array in front of the
// timer wheel; the test and its "wheel" subtest keep the names they had
// when a heap queue ran beside it, so a failure here stays comparable
// with older runs.
func TestSchedulerBehaviorBothImpls(t *testing.T) {
	t.Run("wheel", func(t *testing.T) {
		s := NewScheduler()
		var got []int
		s.At(30*time.Millisecond, func() { got = append(got, 3) })
		s.At(10*time.Millisecond, func() { got = append(got, 1) })
		ev := s.At(25*time.Millisecond, func() { got = append(got, 9) })
		s.At(20*time.Millisecond, func() { got = append(got, 2) })
		for i := 0; i < 4; i++ {
			i := i
			s.At(40*time.Millisecond, func() { got = append(got, 10+i) })
		}
		if !ev.Cancel() {
			t.Fatal("Cancel returned false on a pending event")
		}
		if s.Len() != 7 {
			t.Fatalf("Len = %d after cancel, want 7", s.Len())
		}
		s.Run()
		want := []int{1, 2, 3, 10, 11, 12, 13}
		if len(got) != len(want) {
			t.Fatalf("fired %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("fired %v, want %v", got, want)
			}
		}
		s.Reset()
		if s.Now() != 0 || s.Len() != 0 {
			t.Fatalf("after Reset: Now=%v Len=%d, want zeros", s.Now(), s.Len())
		}
	})
}
