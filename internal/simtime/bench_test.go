package simtime

import (
	"testing"
	"time"
)

func BenchmarkSchedulerChurn(b *testing.B) {
	s := NewScheduler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i%100)*time.Microsecond, func() {})
		if i%64 == 0 {
			for s.Step() {
			}
		}
	}
	s.Run()
}

// BenchmarkSchedulerStep measures the pooled, closure-free steady state:
// one Step pops an event whose callback reschedules itself through the
// AfterArg path. This is the inner loop of every simulation; it must stay
// at 0 B/op (see TestSchedulerStepZeroAlloc).
func BenchmarkSchedulerStep(b *testing.B) {
	s := NewScheduler()
	s.AfterArg(0, stepBenchFn, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func BenchmarkTicker(b *testing.B) {
	s := NewScheduler()
	n := 0
	s.Tick(time.Millisecond, func() { n++ })
	b.ResetTimer()
	s.RunUntil(time.Duration(b.N) * time.Millisecond)
}

// mixedHorizons spans every wheel level: level 0 (sub-2ms), level 1
// (sub-537ms), level 2 (sub-137s), and a deadline deep enough to cascade
// through level 3 territory. A standing population re-arming over this mix
// keeps cascade and re-placement machinery on the measured path.
var mixedHorizons = [8]time.Duration{
	50 * time.Microsecond,
	300 * time.Microsecond,
	2 * time.Millisecond,
	20 * time.Millisecond,
	150 * time.Millisecond,
	time.Second,
	10 * time.Second,
	80 * time.Second,
}

// mixedChurner is the closure-free state for mixedChurnFn; one per
// standing event so the population never shrinks. rng is a per-churner
// LCG so deadlines de-synchronize — real timer populations (pacing
// intervals, RTT-jittered feedback, retransmit deadlines) spread across
// ticks rather than expiring in lockstep cohorts.
type mixedChurner struct {
	s   *Scheduler
	rng uint32
}

// mixedDelay draws the next re-arm horizon: one of the mixedHorizons
// classes plus up to ~8 ms of jitter, from the churner's deterministic
// LCG stream.
func (c *mixedChurner) mixedDelay() time.Duration {
	c.rng = c.rng*1664525 + 1013904223
	return mixedHorizons[c.rng>>13&7] + time.Duration(c.rng&8191)*time.Microsecond
}

func mixedChurnFn(a any) {
	c := a.(*mixedChurner)
	c.s.AfterArg(c.mixedDelay(), mixedChurnFn, a)
}

// newMixedHorizon returns a scheduler holding n standing self-rearming
// events whose deadlines span all wheel levels, already stepped n times
// so placement and the event pool are in steady state.
func newMixedHorizon(n int) *Scheduler {
	s := NewScheduler()
	churners := make([]mixedChurner, n)
	for i := range churners {
		churners[i] = mixedChurner{s: s, rng: uint32(i)}
		s.AfterArg(churners[i].mixedDelay(), mixedChurnFn, &churners[i])
	}
	for i := 0; i < n; i++ {
		s.Step()
	}
	return s
}

// BenchmarkSchedulerMixedHorizon measures Step with 16k standing
// mixed-horizon events: O(1) placement plus amortized cascades, where a
// binary heap would sift O(log n) on every push and pop.
func BenchmarkSchedulerMixedHorizon(b *testing.B) {
	s := newMixedHorizon(1 << 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func cancelBenchNoop(any) {}

// cancelRing holds n pending events spread over the mixed horizons, for
// the cancel-and-replace pattern that retransmit timers and pacer
// deadline updates hit constantly.
type cancelRing struct {
	s   *Scheduler
	evs []Event
}

// newCancelRing schedules n pending events; n must be a power of two.
func newCancelRing(n int) *cancelRing {
	r := &cancelRing{s: NewScheduler(), evs: make([]Event, n)}
	for i := range r.evs {
		r.evs[i] = r.s.AtArg(r.s.Now()+mixedHorizons[i&7], cancelBenchNoop, nil)
	}
	return r
}

// replace cancels the i-th pending event (modulo the ring) from deep
// inside the queue and schedules a fresh one in its place.
func (r *cancelRing) replace(i int) {
	j := i & (len(r.evs) - 1)
	r.evs[j].Cancel()
	r.evs[j] = r.s.AtArg(r.s.Now()+mixedHorizons[i&7], cancelBenchNoop, nil)
}

// BenchmarkSchedulerCancel measures cancel-and-replace with 4k pending
// events. The wheel unlinks in O(1).
func BenchmarkSchedulerCancel(b *testing.B) {
	r := newCancelRing(1 << 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.replace(i)
	}
}
