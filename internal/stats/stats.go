// Package stats provides the small online statistics used throughout the
// simulator: exponentially weighted moving averages, windowed extrema,
// percentile summaries, histograms, an online linear regression (used by the
// congestion controller's trendline filter), and a deterministic PRNG
// wrapper.
//
// All types have useful zero values unless a constructor is documented.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// EWMA is an exponentially weighted moving average. The zero value is empty;
// the first Update seeds the average directly.
type EWMA struct {
	alpha  float64
	value  float64
	seeded bool
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1]. Higher
// alpha weights recent samples more.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("stats: EWMA alpha %v out of (0,1]", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Update folds a sample into the average and returns the new value.
func (e *EWMA) Update(sample float64) float64 {
	if !e.seeded {
		e.value = sample
		e.seeded = true
		return e.value
	}
	e.value += e.alpha * (sample - e.value)
	return e.value
}

// Value returns the current average (zero if no samples yet).
func (e *EWMA) Value() float64 { return e.value }

// Seeded reports whether at least one sample has been folded in.
func (e *EWMA) Seeded() bool { return e.seeded }

// Reset clears the average back to the unseeded state.
func (e *EWMA) Reset() { e.value = 0; e.seeded = false }

// Set forces the average to v and marks it seeded.
func (e *EWMA) Set(v float64) { e.value = v; e.seeded = true }

// WindowedMin tracks the minimum of the last N samples in O(1) amortized
// time using a monotonic deque.
type WindowedMin struct{ w extremaWindow }

// WindowedMax tracks the maximum of the last N samples in O(1) amortized
// time using a monotonic deque.
type WindowedMax struct{ w extremaWindow }

// extremaWindow is the monotonic deque behind WindowedMin and WindowedMax:
// entries in sample order whose values only increase (min) or decrease
// (max) from the front, each tagged with its sample number so the front
// can be evicted once it leaves the window. The deque is a ring that grows
// to its high-water mark (at most window+1 entries) and is then reused; a
// head-sliced deque would leak capacity out the front and reallocate for
// as long as it runs.
type extremaWindow struct {
	window int
	seq    int
	q      entryRing
}

type minEntry struct {
	seq int
	val float64
}

// init empties the deque for a window of the given size, keeping its ring.
func (w *extremaWindow) init(window int) {
	w.window, w.seq = window, 0
	w.q.head, w.q.n = 0, 0
}

// push appends v as the newest sample, once every dominated entry has been
// popped off the back, and evicts the front if it left the window.
func (w *extremaWindow) push(v float64) float64 {
	w.q.push(minEntry{seq: w.seq, val: v})
	w.seq++
	for w.q.front().seq <= w.seq-1-w.window {
		w.q.popFront()
	}
	return w.q.front().val
}

// NewWindowedMin returns a tracker over the last window samples. window must
// be positive.
func NewWindowedMin(window int) *WindowedMin {
	w := new(WindowedMin)
	w.Init(window)
	return w
}

// Init empties the tracker and sets its window, keeping the deque's
// storage. window must be positive.
func (w *WindowedMin) Init(window int) {
	if window <= 0 {
		panic("stats: WindowedMin window must be positive")
	}
	w.w.init(window)
}

// Update inserts a sample and returns the current windowed minimum.
func (w *WindowedMin) Update(v float64) float64 {
	for w.w.q.n > 0 && w.w.q.back().val >= v {
		w.w.q.popBack()
	}
	return w.w.push(v)
}

// Min returns the current windowed minimum, or +Inf when empty.
func (w *WindowedMin) Min() float64 {
	if w.w.q.n == 0 {
		return math.Inf(1)
	}
	return w.w.q.front().val
}

// NewWindowedMax returns a tracker over the last window samples. window
// must be positive.
func NewWindowedMax(window int) *WindowedMax {
	w := new(WindowedMax)
	w.Init(window)
	return w
}

// Init empties the tracker and sets its window, keeping the deque's
// storage. window must be positive.
func (w *WindowedMax) Init(window int) {
	if window <= 0 {
		panic("stats: WindowedMax window must be positive")
	}
	w.w.init(window)
}

// Update inserts a sample and returns the current windowed maximum.
func (w *WindowedMax) Update(v float64) float64 {
	for w.w.q.n > 0 && w.w.q.back().val <= v {
		w.w.q.popBack()
	}
	return w.w.push(v)
}

// Max returns the current windowed maximum, or -Inf when empty.
func (w *WindowedMax) Max() float64 {
	if w.w.q.n == 0 {
		return math.Inf(-1)
	}
	return w.w.q.front().val
}

// entryRing is a double-ended queue of deque entries in a power-of-two
// circular buffer: head indexes the front, and the back is n-1 slots on.
type entryRing struct {
	buf  []minEntry // len(buf) is always zero or a power of two
	head int
	n    int
}

func (q *entryRing) at(i int) *minEntry { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// front and back return the oldest and newest entries; the ring must not
// be empty.
func (q *entryRing) front() minEntry { return q.buf[q.head] }
func (q *entryRing) back() minEntry  { return *q.at(q.n - 1) }

func (q *entryRing) popFront() {
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
}

func (q *entryRing) popBack() { q.n-- }

// push appends e at the back, doubling the buffer (minimum 8) and
// unwrapping it in order when full.
func (q *entryRing) push(e minEntry) {
	if q.n == len(q.buf) {
		grown := make([]minEntry, max(2*len(q.buf), 8))
		for i := 0; i < q.n; i++ {
			grown[i] = *q.at(i)
		}
		q.buf, q.head = grown, 0
	}
	q.n++
	*q.at(q.n - 1) = e
}

// Summary computes order statistics over a recorded sample set. Samples are
// kept in full; simulations are small enough that sketching is unnecessary,
// and exact percentiles make tests deterministic. Quantiles select their
// order statistics in place (see selectNth) rather than sorting, and Reset
// keeps the buffer, so a Summary reused across sample sets allocates only
// when one outgrows every set before it.
type Summary struct {
	samples []float64
	sum     float64
	// fixed is one more than the index of the last order statistic
	// selected, or zero: samples is partitioned around that index, so the
	// next selection searches only the side it falls on. Add clears it.
	fixed int
}

// Grow reserves room for n more samples, so a caller that knows its
// sample count records them with one allocation instead of append's
// doublings.
func (s *Summary) Grow(n int) { s.samples = slices.Grow(s.samples, n) }

// Reset empties the summary, keeping its buffer.
func (s *Summary) Reset() { s.samples, s.sum = s.samples[:0], 0 }

// Add records a sample.
func (s *Summary) Add(v float64) {
	s.samples = append(s.samples, v)
	s.fixed = 0
	s.sum += v
}

// Count returns the number of recorded samples.
func (s *Summary) Count() int { return len(s.samples) }

// Sum returns the sum of all samples.
func (s *Summary) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or zero for an empty summary.
func (s *Summary) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

// Stddev returns the population standard deviation, or zero if fewer than
// two samples were recorded.
func (s *Summary) Stddev() float64 {
	n := len(s.samples)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, v := range s.samples {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Quantile returns the q-th quantile (q in [0,1]) using linear
// interpolation between order statistics. Empty summaries return zero.
// The order statistics are the values sort.Float64s would put at those
// positions (NaN first), so the result is exactly a sorted summary's.
func (s *Summary) Quantile(q float64) float64 {
	if len(s.samples) == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min()
	}
	if q >= 1 {
		return s.Max()
	}
	pos := q * float64(len(s.samples)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	s.selectNth(lo)
	if lo == hi {
		return s.samples[lo]
	}
	// Everything past lo is no less than it, so the next order
	// statistic is the least of them.
	frac := pos - float64(lo)
	return s.samples[lo]*(1-frac) + extreme(s.samples[hi:], floatLess)*frac
}

// Min returns the smallest sample, or zero for an empty summary.
func (s *Summary) Min() float64 { return extreme(s.samples, floatLess) }

// Max returns the largest sample, or zero for an empty summary.
func (s *Summary) Max() float64 {
	return extreme(s.samples, func(a, b float64) bool { return floatLess(b, a) })
}

// Samples returns a copy of the recorded samples. The order is
// unspecified: any preceding Quantile call reorders the backing array in
// place, so callers that need insertion order must record it themselves.
// Mutating the returned slice never affects the Summary. Use for CDF
// rendering (sort the copy first).
func (s *Summary) Samples() []float64 {
	out := make([]float64, len(s.samples))
	copy(out, s.samples)
	return out
}

// floatLess is sort.Float64s's order: ascending, with NaN before every
// number.
func floatLess(a, b float64) bool { return a < b || (math.IsNaN(a) && !math.IsNaN(b)) }

// extreme returns the element of a that comes first under before (the
// earliest of equals), or zero when a is empty.
func extreme(a []float64, before func(a, b float64) bool) float64 {
	if len(a) == 0 {
		return 0
	}
	m := a[0]
	for _, v := range a[1:] {
		if before(v, m) {
			m = v
		}
	}
	return m
}

// selectNth reorders the samples so that samples[k] is the k-th order
// statistic, with nothing after it less and nothing before it greater:
// quickselect with a median-of-three pivot and a three-way partition, so
// runs of ties cost one pass. After a previous selection it searches only
// the side of that partition k falls on, so quantiles asked for in
// increasing order cost about one pass over the samples between them. A
// range that has not shrunk to insertion-sort size within 2·log2(n)
// partitions is sorted outright, which bounds the worst case at
// O(n log n).
func (s *Summary) selectNth(k int) {
	a := s.samples
	lo, hi := 0, len(a)
	if j := s.fixed - 1; j >= 0 {
		if k == j {
			return
		}
		if k > j {
			lo = j + 1
		} else {
			hi = j
		}
	}
	s.fixed = k + 1
	for budget := 2 * bits.Len(uint(hi-lo)); hi-lo > 12; budget-- {
		if budget == 0 {
			slices.Sort(a[lo:hi])
			return
		}
		p := median3(a[lo], a[lo+(hi-lo)/2], a[hi-1])
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := a[i]; {
			case floatLess(v, p):
				a[lt], a[i] = v, a[lt]
				lt++
				i++
			case floatLess(p, v):
				gt--
				a[i], a[gt] = a[gt], v
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && floatLess(a[j], a[j-1]); j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// median3 returns the median of three values under floatLess.
func median3(a, b, c float64) float64 {
	if floatLess(b, a) {
		a, b = b, a
	}
	if floatLess(c, b) {
		b = c
		if floatLess(b, a) {
			b = a
		}
	}
	return b
}

// Histogram is a fixed-bucket histogram over [min, max) with uniform bucket
// widths; samples outside the range fall into the first/last bucket.
type Histogram struct {
	min, max float64
	counts   []int
	total    int
}

// NewHistogram creates a histogram with n uniform buckets spanning
// [min, max). n must be positive and max > min.
func NewHistogram(min, max float64, n int) *Histogram {
	if n <= 0 || max <= min {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{min: min, max: max, counts: make([]int, n)}
}

// Add records a sample.
func (h *Histogram) Add(v float64) {
	i := int((v - h.min) / (h.max - h.min) * float64(len(h.counts)))
	if i < 0 {
		i = 0
	}
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.total++
}

// Counts returns the per-bucket counts (not a copy; callers must not
// mutate).
func (h *Histogram) Counts() []int { return h.counts }

// Total returns the number of recorded samples.
func (h *Histogram) Total() int { return h.total }

// BucketMid returns the midpoint value of bucket i.
func (h *Histogram) BucketMid(i int) float64 {
	w := (h.max - h.min) / float64(len(h.counts))
	return h.min + (float64(i)+0.5)*w
}

// point is one (x, y) sample of a sliding window.
type point struct{ x, y float64 }

// pointRing is a FIFO of points in a circular buffer: head indexes the
// oldest point, and segments yields them oldest to newest. A head-sliced window
// (`s = s[1:]` then append) would leak capacity out the front of its
// backing array and reallocate every few hundred samples for as long as
// it runs; the ring grows by doubling (unwrapping in order) to its
// high-water mark and then reuses one array.
type pointRing struct {
	buf  []point
	head int
	n    int
}

// segments returns the points oldest to newest as at most two contiguous
// runs: older, then newer (nil unless the ring wraps).
func (q *pointRing) segments() (older, newer []point) {
	if end := q.head + q.n; end <= len(q.buf) {
		return q.buf[q.head:end], nil
	}
	return q.buf[q.head:], q.buf[:q.head+q.n-len(q.buf)]
}

// oldest returns the oldest point; the ring must not be empty.
func (q *pointRing) oldest() point { return q.buf[q.head] }

// push appends p as the newest point.
func (q *pointRing) push(p point) {
	if q.n == len(q.buf) {
		grown := make([]point, max(2*len(q.buf), 8))
		older, newer := q.segments()
		copy(grown[copy(grown, older):], newer)
		q.buf, q.head = grown, 0
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = p
	q.n++
}

// pop drops the oldest point.
func (q *pointRing) pop() {
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
}

// LinReg is an online simple linear regression y = a + b*x over a sliding
// window of at most N points. It is the core of the GCC trendline filter.
// The window is a fixed-size ring allocated once, by the first Init.
type LinReg struct {
	window int
	pts    pointRing
}

// NewLinReg returns a regression over the last window points. window must be
// at least 2.
func NewLinReg(window int) *LinReg {
	r := new(LinReg)
	r.Init(window)
	return r
}

// Init empties the regression and sets its window, reusing the ring when
// its size already matches. window must be at least 2.
func (r *LinReg) Init(window int) {
	if window < 2 {
		panic("stats: LinReg window must be >= 2")
	}
	if len(r.pts.buf) != window {
		r.pts.buf = make([]point, window)
	}
	r.window = window
	r.Reset()
}

// Add inserts a point, evicting the oldest when the window is full.
func (r *LinReg) Add(x, y float64) {
	if r.pts.n == r.window {
		r.pts.pop()
	}
	r.pts.push(point{x, y})
}

// Len returns the number of points currently in the window.
func (r *LinReg) Len() int { return r.pts.n }

// Slope returns the least-squares slope b and true, or 0 and false when
// fewer than two points (or zero x-variance) are available. Points are
// summed oldest to newest, so the result is bit-identical to a regression
// over a plain slice of the window.
func (r *LinReg) Slope() (float64, bool) {
	n := r.pts.n
	if n < 2 {
		return 0, false
	}
	older, newer := r.pts.segments()
	var sx, sy float64
	for _, seg := range [2][]point{older, newer} {
		for _, p := range seg {
			sx += p.x
			sy += p.y
		}
	}
	mx, my := sx/float64(n), sy/float64(n)
	var num, den float64
	for _, seg := range [2][]point{older, newer} {
		for _, p := range seg {
			dx := p.x - mx
			num += dx * (p.y - my)
			den += dx * dx
		}
	}
	if den == 0 {
		return 0, false
	}
	return num / den, true
}

// Reset drops all points.
func (r *LinReg) Reset() { r.pts.head, r.pts.n = 0, 0 }

// RateMeter measures a rate (e.g. acknowledged bitrate) over a sliding time
// window from (timestamp, amount) samples. Timestamps are float64 seconds.
// Samples live in a ring that grows to the window's high-water mark and is
// reused from then on.
type RateMeter struct {
	window  float64   // seconds
	samples pointRing // x: time, y: amount
	total   float64
}

// NewRateMeter returns a meter over the given window in seconds.
func NewRateMeter(windowSec float64) *RateMeter {
	m := new(RateMeter)
	m.Init(windowSec)
	return m
}

// Init empties the meter and sets its window in seconds, keeping the
// ring's storage. windowSec must be positive.
func (m *RateMeter) Init(windowSec float64) {
	if windowSec <= 0 {
		panic("stats: RateMeter window must be positive")
	}
	m.window, m.total = windowSec, 0
	m.samples.head, m.samples.n = 0, 0
}

// Add records amount observed at time t (seconds). Times must be
// non-decreasing.
func (m *RateMeter) Add(t, amount float64) {
	m.samples.push(point{t, amount})
	m.total += amount
	m.evict(t)
}

// evict drops samples older than the window, oldest first, so total sees
// the same sequence of subtractions as the samples' arrival order.
func (m *RateMeter) evict(now float64) {
	cut := now - m.window
	for m.samples.n > 0 {
		p := m.samples.oldest()
		if p.x >= cut {
			break
		}
		m.total -= p.y
		m.samples.pop()
	}
}

// Rate returns the windowed rate in amount-units per second as of time t.
// With no samples in the window it returns zero.
func (m *RateMeter) Rate(t float64) float64 {
	m.evict(t)
	if m.samples.n == 0 {
		return 0
	}
	span := t - m.samples.oldest().x
	if span < m.window/2 {
		span = m.window / 2 // avoid wild rates from a near-empty window
	}
	return m.total / span
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ClampInt limits v to [lo, hi].
func ClampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
