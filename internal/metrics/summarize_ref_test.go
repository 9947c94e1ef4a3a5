package metrics

import (
	"math"
	"slices"
	"sort"
	"time"
)

// This file keeps the sort-based Summarize that the reusable Summarizer
// replaced, verbatim but for names, as the reference it is tested
// against: refSummary is stats.Summary as it sorted its samples, and
// refSummarize / refSummarizeAll are the package-level functions as they
// built a fresh pair of summaries per call.

// refSummary computes order statistics over a recorded sample set. Samples are
// kept in full; simulations are small enough that sketching is unnecessary,
// and exact percentiles make tests deterministic.
type refSummary struct {
	samples []float64
	sorted  bool
	sum     float64
}

// Grow reserves room for n more samples, so a caller that knows its
// sample count records them with one allocation instead of append's
// doublings.
func (s *refSummary) Grow(n int) { s.samples = slices.Grow(s.samples, n) }

// Add records a sample.
func (s *refSummary) Add(v float64) {
	s.samples = append(s.samples, v)
	s.sorted = false
	s.sum += v
}

// Count returns the number of recorded samples.
func (s *refSummary) Count() int { return len(s.samples) }

// Mean returns the arithmetic mean, or zero for an empty summary.
func (s *refSummary) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

func (s *refSummary) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
}

// Quantile returns the q-th quantile (q in [0,1]) using linear
// interpolation between order statistics. Empty summaries return zero.
func (s *refSummary) Quantile(q float64) float64 {
	if len(s.samples) == 0 {
		return 0
	}
	if q <= 0 {
		s.ensureSorted()
		return s.samples[0]
	}
	if q >= 1 {
		s.ensureSorted()
		return s.samples[len(s.samples)-1]
	}
	s.ensureSorted()
	pos := q * float64(len(s.samples)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.samples[lo]
	}
	frac := pos - float64(lo)
	return s.samples[lo]*(1-frac) + s.samples[hi]*frac
}

// Max returns the largest sample, or zero for an empty summary.
func (s *refSummary) Max() float64 { return s.Quantile(1) }

// refSummarize aggregates records whose capture time falls in [from, to).
// frameInterval is used for freeze-duration accounting; a zero value
// defaults to 33 ms.
func refSummarize(records []FrameRecord, from, to time.Duration, frameInterval time.Duration) Report {
	if frameInterval <= 0 {
		frameInterval = 33 * time.Millisecond
	}
	var rep Report
	var net, disp refSummary
	// Size the sample buffers exactly: one allocation each instead of
	// append's doublings.
	nNet, nDisp := 0, 0
	for _, r := range records {
		if r.CaptureTS < from || r.CaptureTS >= to {
			continue
		}
		if r.Outcome == Delivered {
			nDisp++
		}
		if arrived(r) {
			nNet++
		}
	}
	net.Grow(nNet)
	disp.Grow(nDisp)
	var ssimSum, encSSIMSum float64
	var bits float64
	// A single missing slot at capture rate is a frame-rate reduction
	// (e.g. SVC layer filtering to half rate), not a perceptible stall;
	// only runs of two or more slots count as freezes.
	const minFreezeSlots = 2
	freezeRun := 0
	flushFreeze := func() {
		if freezeRun >= minFreezeSlots {
			rep.FreezeCount++
			d := time.Duration(freezeRun) * frameInterval
			if d > rep.LongestFreeze {
				rep.LongestFreeze = d
			}
			rep.TotalFreeze += d
		}
		freezeRun = 0
	}
	for _, r := range records {
		if r.CaptureTS < from || r.CaptureTS >= to {
			continue
		}
		rep.Frames++
		ssimSum += r.SSIM
		bits += float64(r.Bytes) * 8
		switch r.Outcome {
		case Delivered:
			rep.DeliveredFrames++
			encSSIMSum += r.SSIM
			net.Add(r.NetworkDelay().Seconds())
			disp.Add(r.DisplayDelay().Seconds())
			flushFreeze()
		case Skipped:
			rep.SkippedFrames++
			freezeRun++
		case Dropped:
			rep.DroppedFrames++
			if r.Arrival > 0 {
				// Arrived but not displayed (over the lateness
				// budget): still a latency sample.
				net.Add(r.NetworkDelay().Seconds())
			}
			freezeRun++
		}
	}
	flushFreeze()
	if rep.Frames > 0 {
		rep.MeanSSIM = ssimSum / float64(rep.Frames)
		if rep.DeliveredFrames > 0 {
			rep.EncodedSSIM = encSSIMSum / float64(rep.DeliveredFrames)
		}
		span := to - from
		if span > 0 && to != time.Duration(1<<62) {
			rep.Bitrate = bits / span.Seconds()
			rep.Span = span
		}
	}
	sec := func(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }
	if net.Count() > 0 {
		rep.MeanNetDelay = sec(net.Mean())
		rep.P50NetDelay = sec(net.Quantile(0.50))
		rep.P95NetDelay = sec(net.Quantile(0.95))
		rep.P99NetDelay = sec(net.Quantile(0.99))
		rep.MaxNetDelay = sec(net.Max())
		rep.MeanDisplayDelay = sec(disp.Mean())
		rep.P95DisplayDelay = sec(disp.Quantile(0.95))
	}
	return rep
}

// refSummarizeAll aggregates the full ledger. The bitrate is computed over the
// span of observed capture times.
func refSummarizeAll(records []FrameRecord, frameInterval time.Duration) Report {
	if len(records) == 0 {
		return Report{}
	}
	lo, hi := records[0].CaptureTS, records[0].CaptureTS
	for _, r := range records {
		if r.CaptureTS < lo {
			lo = r.CaptureTS
		}
		if r.CaptureTS > hi {
			hi = r.CaptureTS
		}
	}
	return refSummarize(records, lo, hi+frameInterval, frameInterval)
}
