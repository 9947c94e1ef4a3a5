// Package trace models time-varying bottleneck capacity as piecewise-
// constant traces. Traces drive the netem link and double as the ground
// truth for the oracle estimator.
//
// A trace is an ordered list of (at, bps) breakpoints; the rate at time t is
// the bps of the last breakpoint at or before t. The package holds only
// what internal/scenario lowers a network path to: the trace type, the
// seeded LTE/WiFi/random-walk capacity generators, and the CSV reader for
// measured traces. Step drops, staircases and square waves are scenario
// phases, not trace constructors.
package trace

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"rtcadapt/internal/units"
)

// Forever marks a segment with no later breakpoint.
const Forever = time.Duration(math.MaxInt64)

// Point is one breakpoint: from At onward the capacity is Bps.
type Point struct {
	At  time.Duration
	Bps units.BitsPerSec
}

// Trace is an immutable piecewise-constant capacity function. The zero value
// is invalid; use the constructors.
type Trace struct {
	name   string
	points []Point
}

// New builds a trace from breakpoints. Points are sorted by time; the first
// breakpoint must be at time zero so the rate is defined everywhere, and all
// rates must be positive. The trace keeps a copy of points.
func New(name string, points ...Point) (*Trace, error) {
	return own(name, slices.Clone(points))
}

// MustNew is New but panics on error; for use with literal points.
func MustNew(name string, points ...Point) *Trace {
	tr, err := New(name, points...)
	if err != nil {
		panic(err)
	}
	return tr
}

// own is New without the copy: it validates ps, sorting it in place if
// need be, and the trace takes ps itself. The generators build their
// points for the trace alone, so they hand them over rather than pay for
// a second array.
func own(name string, ps []Point) (*Trace, error) {
	if len(ps) == 0 {
		return nil, errors.New("trace: no points")
	}
	// Generators and files give their points in order; only others pay
	// for the sort.
	byAt := func(a, b Point) int { return cmp.Compare(a.At, b.At) }
	if !slices.IsSortedFunc(ps, byAt) {
		slices.SortStableFunc(ps, byAt)
	}
	if ps[0].At != 0 {
		return nil, fmt.Errorf("trace: first breakpoint at %v, want 0", ps[0].At)
	}
	for i, p := range ps {
		// !(p.Bps > 0) rather than p.Bps <= 0: NaN compares false both
		// ways and would sail through a <= check, then poison every
		// serialization deadline downstream in netem.
		if !(p.Bps > 0) || math.IsInf(float64(p.Bps), 1) {
			return nil, fmt.Errorf("trace: rate %v at %v is not a positive finite number", float64(p.Bps), p.At)
		}
		if i > 0 && ps[i-1].At == p.At {
			return nil, fmt.Errorf("trace: duplicate breakpoint at %v", p.At)
		}
	}
	return &Trace{name: name, points: ps}, nil
}

// mustOwn is own but panics on error; the generators' points are valid by
// construction.
func mustOwn(name string, ps []Point) *Trace {
	tr, err := own(name, ps)
	if err != nil {
		panic(err)
	}
	return tr
}

// Name returns the trace's descriptive name.
func (t *Trace) Name() string { return t.name }

// Points returns a copy of the breakpoints.
func (t *Trace) Points() []Point {
	out := make([]Point, len(t.points))
	copy(out, t.points)
	return out
}

// RateAt returns the capacity in bits/s at time at, plus the time of the
// next breakpoint (Forever if none). at must be non-negative.
func (t *Trace) RateAt(at time.Duration) (bps units.BitsPerSec, validUntil time.Duration) {
	if at < 0 {
		at = 0
	}
	// Binary search for the last point with At <= at.
	i := sort.Search(len(t.points), func(i int) bool { return t.points[i].At > at }) - 1
	if i < 0 {
		i = 0
	}
	next := Forever
	if i+1 < len(t.points) {
		next = t.points[i+1].At
	}
	return t.points[i].Bps, next
}

// Constant returns a trace with a fixed capacity.
func Constant(bps units.BitsPerSec) *Trace {
	return MustNew(fmt.Sprintf("const-%.0fbps", float64(bps)), Point{At: 0, Bps: bps})
}
