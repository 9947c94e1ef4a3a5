// Package simtime provides a deterministic discrete-event scheduler with a
// virtual clock. Every component of the simulator runs on virtual time, so a
// whole end-to-end session is a pure function of its configuration and seeds.
//
// The zero value of Scheduler is ready to use. Events scheduled for the same
// instant fire in scheduling order (FIFO), which keeps runs reproducible.
//
// The queue (see wheel.go) keeps up to 16 pending events in a sorted
// inline array and spills into a hierarchical timer wheel only when the
// depth it observes grows past that; it stays in the wheel until Reset.
// Tests check it against a plain reference model
// (FuzzSchedulerEquivalence) that shares no code with it.
//
// # Allocation model
//
// The scheduler is allocation-free in steady state. Fired and canceled
// events return to a per-scheduler free list and are recycled by later At
// and After calls; the wheel's slot arrays are reused across the whole
// run. Handles stay safe across recycling through generation counters:
// every recycle bumps the record's generation, so a stale handle (its
// event already fired or canceled) simply stops matching and Cancel
// degrades to a no-op instead of corrupting an unrelated event.
//
// Callbacks come in two forms. At and After take a plain func(), which is
// what cold paths and tests want but allocates a closure whenever the
// callback captures variables. Hot paths that fire per packet should use
// AtArg and AfterArg instead: they take a func(any) plus the argument to
// call it with, so a package-level dispatch function and a pooled record
// replace the capturing closure and the per-call allocation disappears.
package simtime

import (
	"fmt"
	"math"
	"time"
)

// Clock exposes the current virtual time. Components that only need to read
// time should accept a Clock rather than a *Scheduler.
type Clock interface {
	// Now returns the current virtual time, measured from the start of the
	// simulation.
	Now() time.Duration
}

// event is the pooled record behind an Event handle. Records are owned by
// one scheduler forever: they cycle between its queue and its free list and
// are never shared across schedulers, so pooling is invisible to parallel
// runs of independent schedulers.
type event struct {
	s     *Scheduler
	at    time.Duration
	seq   uint64
	fn    func()
	argFn func(any)
	arg   any

	// index locates the record inside its container: the index in the
	// wheel's overflow or ready heap, or 0 as a queued marker for slot
	// residents (their position is carried by the next/prev links) and
	// for shallow-queue array residents (found by id). index == -1 means
	// not queued; Pending and the pool tests key on that.
	index int
	// level says which container the record is in: a wheel level
	// 0..wheelLevels-1, locOver, locReady, or locNear. Meaningless while
	// index == -1.
	level int8
	// slot is the wheel slot number when level is a wheel level.
	slot uint16
	// id is the record's 1-based arena id, fixed at mint time. Wheel slot
	// lists and the free list link records by id rather than by pointer:
	// an int32 store takes no GC write barrier, where the pointer splices
	// this replaced were the hottest barrier site in fleet profiles.
	id int32
	// next and prev thread the record into its wheel slot's intrusive
	// doubly-linked list as arena ids (0 = none); next also chains the
	// free list.
	next int32
	prev int32

	// gen is the record's live generation; it increments every time the
	// record is released back to the free list, invalidating outstanding
	// handles.
	gen uint64
	// canceledGen remembers the generation whose life ended via Cancel
	// (zero = none yet), so a handle can still answer Canceled after the
	// record was released but before it is reused.
	canceledGen uint64
}

// Event is a handle to a scheduled callback. It can be used to cancel the
// callback before it fires. The zero value is an inert handle: Cancel and
// Pending report false.
//
// Handles are generation-checked: once the event fires or is canceled, the
// underlying pooled record may be recycled for a new event, and the old
// handle stops matching. All methods are safe on stale handles.
type Event struct {
	ev  *event
	gen uint64
	at  time.Duration
}

// At reports the virtual time the event was scheduled for.
func (e Event) At() time.Duration { return e.at }

// Pending reports whether the event is still queued: not yet fired and not
// canceled.
func (e Event) Pending() bool {
	return e.ev != nil && e.ev.gen == e.gen && e.ev.index >= 0
}

// Cancel prevents the event from firing. The event is removed from the
// queue immediately — Len tightens right away and the callback (and
// everything it captures) is released for collection. Canceling an event
// that already fired or was already canceled is a no-op. Cancel reports
// whether the event was still pending.
func (e Event) Cancel() bool {
	if !e.Pending() {
		return false
	}
	ev := e.ev
	s := ev.s
	s.wheel.remove(s, ev)
	ev.canceledGen = ev.gen
	s.release(ev)
	return true
}

// Canceled reports whether Cancel ended this event's life. The answer is
// accurate until the scheduler recycles the underlying record for a new
// event, after which a stale handle reports false; query it promptly.
func (e Event) Canceled() bool {
	return e.ev != nil && e.ev.canceledGen == e.gen
}

// Scheduler is a deterministic discrete-event scheduler. It is not safe for
// concurrent use; simulations are single-goroutine by design.
type Scheduler struct {
	now     time.Duration
	seq     uint64
	stopped bool
	// arena backs every event record the scheduler ever mints, in
	// fixed-size chunks so records keep stable addresses while ids stay
	// dense. minted counts records carved out so far; freeHead chains
	// recycled records by id through event.next (0 = empty).
	arena    [][]event
	minted   int
	freeHead int32
	wheel    wheel
}

// Arena geometry: 256 records per chunk keeps a chunk around 24 KB —
// big enough to amortize growth, small enough not to overshoot tiny runs.
const (
	chunkShift = 8
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// evAt resolves a 1-based record id. Callers check for 0 (none) first.
func (s *Scheduler) evAt(id int32) *event {
	i := int(id - 1)
	return &s.arena[i>>chunkShift][i&chunkMask]
}

// NewScheduler returns a scheduler with the clock at zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Len returns the number of pending events. Canceled events leave the
// queue immediately, so the count is exact.
func (s *Scheduler) Len() int { return s.wheel.count }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a simulation bug, and silently reordering
// events would destroy determinism.
//
// fn allocates a closure when it captures variables; per-packet hot paths
// should use AtArg with a pooled record instead.
func (s *Scheduler) At(t time.Duration, fn func()) Event {
	if fn == nil {
		panic("simtime: At called with nil callback")
	}
	return s.schedule(t, fn, nil, nil)
}

// After schedules fn to run d from now. Negative d is treated as zero, and
// a deadline past the largest representable one saturates to it.
func (s *Scheduler) After(d time.Duration, fn func()) Event {
	return s.At(s.deadline(d), fn)
}

// AtArg schedules fn(arg) to run at absolute virtual time t. Passing a
// package-level function and a pooled pointer argument keeps the call
// allocation-free — the closure-capturing pattern At invites is the single
// biggest allocation source in a per-packet simulation. arg should be a
// pointer; non-pointer values are boxed into the any and allocate.
func (s *Scheduler) AtArg(t time.Duration, fn func(any), arg any) Event {
	if fn == nil {
		panic("simtime: AtArg called with nil callback")
	}
	return s.schedule(t, nil, fn, arg)
}

// AfterArg schedules fn(arg) to run d from now. Negative d is treated as
// zero, and a deadline past the largest representable one saturates to
// it. See AtArg for the allocation contract.
func (s *Scheduler) AfterArg(d time.Duration, fn func(any), arg any) Event {
	return s.AtArg(s.deadline(d), fn, arg)
}

// deadline returns now+d, clamping d below at zero and the sum above at
// maxDeadline, where the plain addition would wrap negative.
func (s *Scheduler) deadline(d time.Duration) time.Duration {
	if d < 0 {
		return s.now
	}
	if d > maxDeadline-s.now {
		return maxDeadline
	}
	return s.now + d
}

// schedule acquires a pooled record, fills it, and queues it.
func (s *Scheduler) schedule(t time.Duration, fn func(), argFn func(any), arg any) Event {
	if t < s.now {
		panic(fmt.Sprintf("simtime: event scheduled in the past (now=%v, at=%v)", s.now, t))
	}
	ev := s.acquire()
	ev.at = t
	ev.seq = s.seq
	ev.fn = fn
	ev.argFn = argFn
	ev.arg = arg
	s.seq++
	s.wheel.push(s, ev)
	return Event{ev: ev, gen: ev.gen, at: t}
}

// acquire pops a record off the free list, or mints one from the arena.
func (s *Scheduler) acquire() *event {
	if id := s.freeHead; id != 0 {
		ev := s.evAt(id)
		s.freeHead = ev.next
		ev.next = 0
		return ev
	}
	if s.minted>>chunkShift == len(s.arena) {
		s.arena = append(s.arena, make([]event, chunkSize))
	}
	ev := &s.arena[s.minted>>chunkShift][s.minted&chunkMask]
	s.minted++
	ev.s = s
	ev.gen = 1
	ev.index = -1
	ev.id = int32(s.minted) // 1-based: id 0 means "none" in the links
	return ev
}

// release clears a record's payload so the callback and its captures are
// collectable, bumps the generation to invalidate outstanding handles, and
// pushes the record onto the free list (chained by id through next).
func (s *Scheduler) release(ev *event) {
	ev.fn = nil
	ev.argFn = nil
	ev.arg = nil
	ev.prev = 0
	ev.index = -1
	ev.gen++
	ev.next = s.freeHead
	s.freeHead = ev.id
}

// Reset returns the scheduler to its initial state — empty queue in
// shallow-array mode, clock at zero, sequence counter at zero, stop flag
// cleared — while keeping the event free list and the wheel's backing
// arrays. One scheduler can
// thereby be reused across many sequential simulation runs (the fleet's
// per-shard discipline) with its pools already warm: the first run pays
// the event allocations, every later run on the same scheduler is
// allocation-free in steady state.
//
// Pending events are canceled: their records are recycled and outstanding
// handles go stale (Pending reports false, Cancel is a no-op). Because seq
// restarts at zero, a Reset scheduler fires events in exactly the order a
// freshly constructed one would — Reset-reuse is invisible to the
// simulation running on it.
func (s *Scheduler) Reset() {
	s.wheel.reset(s)
	s.now = 0
	s.seq = 0
	s.stopped = false
}

// maxDeadline is the step limit that admits every representable deadline.
const maxDeadline = time.Duration(math.MaxInt64)

// step fires the earliest pending event if its deadline is at or before
// limit, advancing the clock to that deadline. It reports whether an event
// fired. The single queue search per fired event is what RunUntil rides
// on; the event's record is recycled before the callback runs, so a
// callback that schedules new events reuses it immediately.
func (s *Scheduler) step(limit time.Duration) bool {
	w := &s.wheel
	var ev *event
	if !w.spilled {
		if ev = w.popNear(s, limit); ev == nil {
			return false
		}
	} else {
		if ev = w.min(s); ev == nil || ev.at > limit {
			return false
		}
		w.remove(s, ev)
		w.advance(s, wheelTick(ev.at))
	}
	s.now = ev.at
	fn, argFn, arg := ev.fn, ev.argFn, ev.arg
	s.release(ev)
	if fn != nil {
		fn()
	} else {
		argFn(arg)
	}
	return true
}

// Step fires the earliest pending event, advancing the clock to its
// deadline. It reports whether an event fired; false means the queue is
// empty.
func (s *Scheduler) Step() bool { return s.step(maxDeadline) }

// Peek returns the deadline of the earliest pending event and true, or zero
// and false if none is pending.
func (s *Scheduler) Peek() (time.Duration, bool) {
	w := &s.wheel
	if w.spilled {
		if ev := w.min(s); ev != nil {
			return ev.at, true
		}
		return 0, false
	}
	if w.count == 0 {
		return 0, false
	}
	return w.near[w.count-1].at, true
}

// RunUntil fires events in order until the queue is exhausted or the next
// event lies strictly beyond t, then advances the clock to exactly t.
func (s *Scheduler) RunUntil(t time.Duration) {
	if t < s.now {
		panic(fmt.Sprintf("simtime: RunUntil into the past (now=%v, until=%v)", s.now, t))
	}
	for !s.stopped && s.step(t) {
	}
	if !s.stopped && s.now < t {
		s.now = t
		if s.wheel.spilled {
			s.wheel.advance(s, wheelTick(t))
		}
	}
}

// Run fires events until the queue is empty or Stop is called.
func (s *Scheduler) Run() {
	for !s.stopped && s.Step() {
	}
}

// Stop makes Run and RunUntil return after the current event completes.
func (s *Scheduler) Stop() { s.stopped = true }

// Stopped reports whether Stop has been called.
func (s *Scheduler) Stopped() bool { return s.stopped }

// Ticker schedules fn every interval, starting at now+interval, until
// canceled via the returned handle or until the scheduler stops. Re-arming
// dispatches through a package-level function, so a running ticker never
// allocates per tick.
type Ticker struct {
	s        *Scheduler
	interval time.Duration
	fn       func()
	ev       Event
	stopped  bool
}

// Tick creates and starts a Ticker. interval must be positive.
func (s *Scheduler) Tick(interval time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic("simtime: Tick with non-positive interval")
	}
	t := &Ticker{s: s, interval: interval, fn: fn}
	t.arm()
	return t
}

// tickerFire dispatches one tick and re-arms; the closure-free counterpart
// of the old capture-per-arm pattern.
func tickerFire(a any) {
	t := a.(*Ticker)
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.arm()
	}
}

// arm schedules the next tick. A ticker whose previous tick saturated at
// the largest representable deadline has no later tick and stops instead
// of re-arming at the same instant forever.
func (t *Ticker) arm() {
	if t.s.now == maxDeadline {
		t.stopped = true
		return
	}
	t.ev = t.s.AfterArg(t.interval, tickerFire, t)
}

// Stop cancels future ticks. It is safe to call multiple times and from
// within the tick callback itself.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Cancel()
}
