package simtime

// eventHeap is a binary min-heap of event records ordered by (at, seq).
// It backs the timer wheel's overflow bucket and its ready heap. Each
// queued record's index field mirrors its position in the heap array so
// Cancel can remove interior elements in O(log n).
type eventHeap []*event

// less orders the heap by deadline, then scheduling order. seq is unique
// per event, so the order is total and pop order never depends on the
// heap's internal array layout.
func (h eventHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

// push appends ev and restores the heap property.
func (h *eventHeap) push(ev *event) {
	ev.index = len(*h)
	*h = append(*h, ev)
	h.siftUp(ev.index)
}

// popMin removes and returns the heap minimum.
func (h *eventHeap) popMin() *event {
	q := *h
	ev := q[0]
	n := len(q) - 1
	q.swap(0, n)
	q[n] = nil
	*h = q[:n]
	if n > 0 {
		h.siftDown(0)
	}
	ev.index = -1
	return ev
}

// removeAt removes the event at heap index i (used by Cancel).
func (h *eventHeap) removeAt(i int) {
	q := *h
	n := len(q) - 1
	removed := q[i]
	if i != n {
		q.swap(i, n)
	}
	q[n] = nil
	*h = q[:n]
	if i < n {
		if !h.siftDown(i) {
			h.siftUp(i)
		}
	}
	removed.index = -1
}

// siftUp restores the heap property from i toward the root.
func (h *eventHeap) siftUp(i int) {
	q := *h
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

// siftDown restores the heap property from i toward the leaves, reporting
// whether the element moved.
func (h *eventHeap) siftDown(i int) bool {
	q := *h
	start := i
	n := len(q)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && q.less(right, left) {
			child = right
		}
		if !q.less(child, i) {
			break
		}
		q.swap(i, child)
		i = child
	}
	return i > start
}
