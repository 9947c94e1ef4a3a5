package simtime

import (
	"math/bits"
	"time"
)

// Hierarchical timer wheel, the scheduler's event queue.
//
// Virtual time is bucketed into ticks of 2^tickShift ns (~8.2 µs). The
// wheel has wheelLevels levels of wheelSlots slots each; level l spans
// 2^(tickShift + wheelBits*(l+1)) ns of virtual time, so the three levels
// cover ~16.8 ms, ~34.4 s, and ~19.6 h ahead of the cursor. Events
// beyond the top window sit in a small overflow min-heap. Wide levels
// (2048 slots) buy fewer cascades per event than a narrower, deeper
// geometry would: RTC horizons concentrate under tens of seconds, so most
// events are born at level 0 or 1 and cascade at most once.
//
// Placement invariant: an event with deadline tick t lives at the lowest
// level l whose window contains it — t>>(wheelBits*(l+1)) equals the same
// shift of the cursor — in slot (t>>(wheelBits*l)) & wheelMask. When the
// cursor's level-(l+1) digit changes, the slot it moved into at level l+1
// is drained and its events re-placed (the cascade); every slot the
// cursor skipped over is provably empty because the cursor only ever
// advances to the deadline of the global minimum event.
//
// Slots are intrusive doubly-linked lists threaded through the pooled
// event records, linked by arena id rather than by pointer: the wheel
// performs no allocation at any point, and the id stores that implement
// insert, cancel, and cascade unlink take no GC write barriers (the
// pointer version of these splices was the hottest barrier site in fleet
// profiles). The slot table itself is pointer-free for the same reason,
// so the collector never scans it.
//
// Ordering is exact, not approximate: within a level, slot index order is
// tick order, and levels are scanned lowest first, so the first occupied
// slot found holds the globally earliest event. Slots are unordered bags;
// an occupied higher-level slot is never searched, only cascaded down
// (see min), and when the cursor reaches an occupied level-0 slot with
// more than one resident, the slot is drained onto a small (at, seq)
// min-heap of ready events, so a same-instant burst of k events pops in
// O(log k) apiece rather than rescanning the bag per pop. The FIFO
// tie-break for same-instant events is the heap's seq order. The wheel
// therefore fires events in exact (at, seq) order, the order a plain
// sorted queue would give.
const (
	tickShift   = 13 // 1 tick = 8.192 µs of virtual time
	wheelBits   = 11
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 3
	wheelWords  = wheelSlots / 64 // 2048-bit occupancy bitmap per level
)

// Event location tags (event.level). Values 0..wheelLevels-1 are wheel
// levels; the named tags mark the two heap locations. A record that is
// not queued anywhere has index == -1 and its level is meaningless.
const (
	locOver  int8 = wheelLevels     // overflow heap
	locReady int8 = wheelLevels + 1 // ready heap (current tick)
)

// wheelTick converts a deadline to its wheel tick. Deadlines are never
// negative (schedule panics on past events and the clock starts at zero),
// so the shift is a plain division by the tick size.
func wheelTick(at time.Duration) uint64 { return uint64(at) >> tickShift }

// wheel is the hierarchical timer wheel. It is embedded by value in
// Scheduler; the zero value is ready to use with the cursor at tick zero.
// Methods take the owning Scheduler to resolve id links against its
// arena.
type wheel struct {
	// cur is the cursor tick. It is always >= the tick of the scheduler's
	// clock but may run ahead of it: min cascades by advancing the cursor
	// to the next occupied slot, which is sound because no event is queued
	// before that slot. place tolerates the gap by filing an event whose
	// deadline trails the cursor into the cursor's own slot.
	cur uint64
	// low is a lower bound on the minimum queued tick, always >= cur. It
	// lets min() resume scanning where the previous search ended instead
	// of walking every occupancy word from the cursor each time: pushes
	// below the bound pull it down, found minima tighten it, and levels
	// whose whole window lies below it are skipped without a scan.
	low   uint64
	count int // queued events across slots, ready heap, and overflow heap
	occ   [wheelLevels][wheelWords]uint64
	over  eventHeap // events beyond the top level's window
	// ready stages the residents of the level-0 slot the cursor currently
	// occupies. Its events all share tick cur — nothing queued anywhere
	// else can precede them — and pop in (at, seq) order, which keeps a
	// same-instant burst of k events at O(log k) per pop instead of a
	// linear slot rescan.
	ready eventHeap
	slots [wheelLevels][wheelSlots]int32
}

// push places ev and counts it.
func (w *wheel) push(s *Scheduler, ev *event) {
	if t := wheelTick(ev.at); t < w.low {
		if t < w.cur {
			t = w.cur // placement clamps to the cursor's slot; so must low
		}
		w.low = t
	}
	w.place(s, ev)
	w.count++
}

// place files ev at the lowest level whose window contains its deadline,
// or on the overflow heap. Used by push and by the cascade (which must
// not touch count). Slot insertion prepends: position in the list carries
// no ordering (order is settled on the ready heap). A deadline that trails the
// cursor — possible when min has cascaded the cursor ahead of the clock —
// files into the cursor's own slot, where the next scan is guaranteed to
// visit it.
func (w *wheel) place(s *Scheduler, ev *event) {
	t := wheelTick(ev.at)
	if t < w.cur {
		t = w.cur
	}
	// The lowest level whose window contains t is set by the highest bit
	// where t and the cursor differ: digit positions above it agree, the
	// one holding it does not. One xor+len replaces a per-level shift
	// loop on the hottest wheel path.
	lvl := 0
	if x := t ^ w.cur; x >= wheelSlots {
		lvl = (bits.Len64(x) - 1) / wheelBits
		if lvl >= wheelLevels {
			ev.level = locOver
			w.over.push(ev)
			return
		}
	}
	slot := int(t>>(wheelBits*lvl)) & wheelMask
	ev.level = int8(lvl)
	ev.slot = uint16(slot)
	ev.index = 0 // queued marker; list position is the links' business
	ev.prev = 0
	ev.next = w.slots[lvl][slot]
	if ev.next != 0 {
		s.evAt(ev.next).prev = ev.id
	}
	w.slots[lvl][slot] = ev.id
	w.occ[lvl][slot>>6] |= 1 << (slot & 63)
}

// remove unqueues ev (which must be queued in this wheel) and uncounts
// it.
func (w *wheel) remove(s *Scheduler, ev *event) {
	switch ev.level {
	case locOver:
		w.over.removeAt(ev.index)
	case locReady:
		w.ready.removeAt(ev.index)
	default:
		w.slotRemove(s, ev)
	}
	w.count--
}

// slotRemove splices ev out of its slot list in O(1), clearing the slot's
// occupancy bit when the list empties.
func (w *wheel) slotRemove(s *Scheduler, ev *event) {
	if ev.next != 0 {
		s.evAt(ev.next).prev = ev.prev
	}
	if ev.prev != 0 {
		s.evAt(ev.prev).next = ev.next
	} else {
		lvl, slot := int(ev.level), int(ev.slot)
		w.slots[lvl][slot] = ev.next
		if ev.next == 0 {
			w.occ[lvl][slot>>6] &^= 1 << (slot & 63)
		}
	}
	ev.next = 0
	ev.prev = 0
	ev.index = -1
}

// min returns the globally earliest queued event, or nil when empty. The
// first occupied slot at the lowest occupied level holds it: within a
// level, slot index order (scanning upward from the low watermark's
// digit) is tick order, and every event at a higher level is strictly
// later than every event the current level can hold.
//
// No slot is ever linearly searched for a minimum. When the first
// occupied slot sits at a higher level, the cursor is advanced to that
// slot's start tick (sound: every queued event lies at or beyond it),
// which drains the slot one level down, and the search restarts — each
// event is thereby touched at most wheelLevels times across its whole
// life instead of being rescanned on every query. When it is a level-0
// slot with a lone resident, that resident is the answer outright; with
// several residents, the slot drains onto the ready heap and the heap
// minimum is the answer. With thousands of standing far-horizon events
// this is the difference between O(1) amortized and O(n) per Step.
func (w *wheel) min(s *Scheduler) *event {
	if len(w.ready) > 0 {
		// Ready events sit at tick cur, so only newcomers scheduled at
		// that same tick — filed into the cursor's own slot — can compete.
		// Fold them in before answering.
		slot := int(w.cur) & wheelMask
		if w.occ[0][slot>>6]&(1<<(slot&63)) != 0 {
			w.drainReady(s, slot)
		}
		return w.ready[0]
	}
	for {
		cascade := -1
		var cslot int
		for lvl := 0; lvl < wheelLevels; lvl++ {
			shift := wheelBits * (lvl + 1)
			window := w.cur >> shift
			if w.low>>shift != window {
				// Every resident of this level lives in the cursor's window
				// here, and every queued tick is >= low, which lies beyond
				// that whole window: the level is empty, skip the scan.
				continue
			}
			start := int(w.low>>(wheelBits*lvl)) & wheelMask
			slot, ok := w.scanOcc(lvl, start)
			if !ok {
				// The level scanned empty from low upward, and everything
				// below low was already empty: the bound rises to the
				// window's end, so the next search skips this level.
				w.low = (window + 1) << shift
				continue
			}
			if lvl == 0 {
				ev := s.evAt(w.slots[0][slot])
				tick := w.cur>>wheelBits<<wheelBits | uint64(slot)
				if lo := wheelTick(ev.at); lo > w.low {
					w.low = lo
				}
				if ev.next == 0 {
					return ev // lone resident: no staging needed
				}
				w.advance(s, tick) // same window: moves cursor, no cascade
				w.drainReady(s, slot)
				return w.ready[0]
			}
			cascade, cslot = lvl, slot
			break
		}
		if cascade < 0 {
			if len(w.over) == 0 {
				return nil
			}
			// Everything pending lies past the top window. Jump the cursor
			// to the overflow minimum's top window, which pulls that whole
			// window onto the wheel, and rescan.
			const topShift = wheelBits * wheelLevels
			w.advance(s, wheelTick(w.over[0].at)>>topShift<<topShift)
			continue
		}
		// Advance to the occupied slot's start tick. The slot index is
		// strictly above the cursor's digit at this level (an event in the
		// cursor's own slot would have been placed lower), so the cursor
		// strictly advances and the loop terminates.
		shift := wheelBits * cascade
		w.advance(s, (w.cur>>(shift+wheelBits)<<wheelBits|uint64(cslot))<<shift)
	}
}

// drainReady moves every resident of a level-0 slot onto the ready heap.
// The slot's tick must equal the cursor's (the caller advances first), so
// the drained events are exactly the next tick's worth of work.
func (w *wheel) drainReady(s *Scheduler, slot int) {
	id := w.slots[0][slot]
	w.slots[0][slot] = 0
	w.occ[0][slot>>6] &^= 1 << (slot & 63)
	for id != 0 {
		ev := s.evAt(id)
		id = ev.next
		ev.next, ev.prev = 0, 0
		ev.level = locReady
		w.ready.push(ev)
	}
}

// scanOcc finds the first occupied slot at or after start on the given
// level. Events never sit below the cursor's digit (deadlines are never
// in the past), so the scan needs no wraparound.
func (w *wheel) scanOcc(lvl, start int) (int, bool) {
	word := start >> 6
	if m := w.occ[lvl][word] &^ (1<<(start&63) - 1); m != 0 {
		return word<<6 + bits.TrailingZeros64(m), true
	}
	for word++; word < wheelWords; word++ {
		if m := w.occ[lvl][word]; m != 0 {
			return word<<6 + bits.TrailingZeros64(m), true
		}
	}
	return 0, false
}

// advance moves the cursor to tick and cascades: for each level whose
// digit changed, the slot the cursor moved into is drained and its
// events re-placed one level down. Slots the cursor skipped are empty by
// construction — the cursor only advances to the deadline of the minimum
// event, to the start of the next occupied slot (min's cascade), or to an
// idle RunUntil target beyond every deadline, so no queued event can live
// strictly between the old and new cursor. A target at or behind the
// cursor is a no-op: the cursor is monotone and may already have
// cascaded ahead of the clock.
func (w *wheel) advance(s *Scheduler, tick uint64) {
	if tick <= w.cur {
		return
	}
	old := w.cur
	w.cur = tick
	if w.low < tick {
		w.low = tick
	}
	for lvl := 1; lvl < wheelLevels; lvl++ {
		shift := wheelBits * lvl
		if old>>shift == tick>>shift {
			return
		}
		w.drainSlot(s, lvl, int(tick>>shift)&wheelMask)
	}
	const topShift = wheelBits * wheelLevels
	for len(w.over) > 0 && wheelTick(w.over[0].at)>>topShift == tick>>topShift {
		w.place(s, w.over.popMin())
	}
}

// drainSlot re-places every event of a slot (the cascade step). Re-placed
// events always land at a lower level, never back into a slot still being
// drained, so the one-pass walk is safe.
func (w *wheel) drainSlot(s *Scheduler, lvl, slot int) {
	id := w.slots[lvl][slot]
	if id == 0 {
		return
	}
	w.slots[lvl][slot] = 0
	w.occ[lvl][slot>>6] &^= 1 << (slot & 63)
	for id != 0 {
		ev := s.evAt(id)
		id = ev.next
		w.place(s, ev)
	}
}

// reset cancel-releases every queued event back to the scheduler's free
// list and returns the wheel to its initial state. Only occupied slots
// are visited (via the occupancy bitmaps), so reset is O(queued events),
// not O(total slots).
func (w *wheel) reset(s *Scheduler) {
	for lvl := range w.slots {
		for word := range w.occ[lvl] {
			m := w.occ[lvl][word]
			for m != 0 {
				slot := word<<6 + bits.TrailingZeros64(m)
				m &= m - 1
				for id := w.slots[lvl][slot]; id != 0; {
					ev := s.evAt(id)
					id = ev.next
					ev.canceledGen = ev.gen
					s.release(ev)
				}
				w.slots[lvl][slot] = 0
			}
			w.occ[lvl][word] = 0
		}
	}
	for i, ev := range w.over {
		w.over[i] = nil
		ev.canceledGen = ev.gen
		s.release(ev)
	}
	w.over = w.over[:0]
	for i, ev := range w.ready {
		w.ready[i] = nil
		ev.canceledGen = ev.gen
		s.release(ev)
	}
	w.ready = w.ready[:0]
	w.cur = 0
	w.low = 0
	w.count = 0
}
