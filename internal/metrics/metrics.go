// Package metrics collects the per-frame ledger of an RTC session and
// aggregates it into the latency and quality figures the paper reports.
//
// Every captured frame produces exactly one FrameRecord describing what the
// viewer experienced at that frame's slot: delivered (with its one-way
// latency and SSIM), skipped at the sender (previous frame repeated), or
// dropped in flight (freeze).
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"rtcadapt/internal/stats"
)

// Outcome classifies what happened to a captured frame. It is a byte so
// that it packs into the FrameRecord's tail with the other small fields.
type Outcome uint8

// Outcomes.
const (
	// Delivered: the frame was encoded, transmitted, and displayed.
	Delivered Outcome = iota
	// Skipped: the sender chose not to encode it (controller skip).
	Skipped
	// Dropped: encoded but never displayed (lost in flight or too late).
	Dropped
)

// String returns the outcome mnemonic.
func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case Skipped:
		return "skipped"
	case Dropped:
		return "dropped"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// FrameRecord is the ledger entry for one captured frame. It is 48 bytes:
// the four 8-byte fields first, then the two 4-byte ones, then the four
// 1-byte ones, so no field is padded and only the last 4 bytes are spare.
// Every session keeps one record per captured frame and every Result a
// caller keeps holds that ledger, so each byte here is paid per frame.
// The narrow fields hold the same values the wider types did: the session
// checks Index and Bytes against int32 when it writes a record, and the
// codec's configuration bounds QP and TemporalLayer (see
// codec.Config.Validate).
type FrameRecord struct {
	// CaptureTS is the capture time.
	CaptureTS time.Duration
	// Arrival is when the frame completed at the receiver (Delivered
	// and some Dropped-as-late frames only).
	Arrival time.Duration
	// DisplayAt is the jitter-buffer playout time (Delivered only).
	DisplayAt time.Duration
	// SSIM is the modeled quality of what the viewer saw in this
	// frame's slot (penalized for skips and freezes).
	SSIM float64
	// Index is the capture index.
	Index int32
	// Bytes is the encoded size (zero for skips).
	Bytes int32
	// Outcome classifies delivery.
	Outcome Outcome
	// QP is the encoder quantizer, at most codec.MaxQP (zero for skips).
	QP uint8
	// Keyframe marks intra frames.
	Keyframe bool
	// TemporalLayer is the frame's SVC temporal layer (0 = base, at most
	// 1).
	TemporalLayer uint8
}

// NetworkDelay is capture-to-complete-arrival one-way latency.
func (r FrameRecord) NetworkDelay() time.Duration { return r.Arrival - r.CaptureTS }

// DisplayDelay is capture-to-display latency.
func (r FrameRecord) DisplayDelay() time.Duration { return r.DisplayAt - r.CaptureTS }

// Collector accumulates frame records in capture order.
type Collector struct {
	records []FrameRecord
}

// Add appends one record.
func (c *Collector) Add(r FrameRecord) { c.records = append(c.records, r) }

// Records returns the ledger (not a copy; callers must not mutate).
func (c *Collector) Records() []FrameRecord { return c.records }

// Len returns the number of records.
func (c *Collector) Len() int { return len(c.records) }

// Report is the aggregate view of a session (or a window of one).
type Report struct {
	// Frames counts captured frames in the window.
	Frames int
	// DeliveredFrames, SkippedFrames, DroppedFrames partition Frames.
	DeliveredFrames, SkippedFrames, DroppedFrames int
	// MeanNetDelay and the percentiles summarize capture-to-arrival
	// latency over every frame that completed at the receiver —
	// including frames rendered too late to display, since the paper's
	// latency metric is end-to-end frame latency, not just rendered
	// frames.
	MeanNetDelay, P50NetDelay, P95NetDelay, P99NetDelay, MaxNetDelay time.Duration
	// P95DisplayDelay summarizes capture-to-display latency.
	MeanDisplayDelay, P95DisplayDelay time.Duration
	// MeanSSIM averages displayed quality over every frame slot,
	// including the freeze penalties of skipped/dropped slots.
	MeanSSIM float64
	// EncodedSSIM averages encoder-output quality over delivered frames
	// only — the quantity an x264 SSIM log reports.
	EncodedSSIM float64
	// Bitrate is the mean encoded bitrate over the window, bits/s.
	Bitrate float64
	// FreezeCount counts runs of consecutive non-delivered slots.
	FreezeCount int
	// LongestFreeze is the longest such run expressed in time.
	LongestFreeze time.Duration
	// TotalFreeze is the summed duration of all freezes.
	TotalFreeze time.Duration
	// Span is the capture-time window the report covers.
	Span time.Duration
}

// Summarizer aggregates ledgers into Reports, keeping the two delay
// sample buffers a Report's percentiles are selected from between calls:
// once warm on the longest window it sees, a Summarizer allocates nothing.
// The zero value is ready to use. A Summarizer is not safe for
// concurrent use; each session and each experiment worker owns one.
type Summarizer struct {
	net, disp stats.Summary
}

// Summarize aggregates records whose capture time falls in [from, to),
// in a throwaway Summarizer.
func Summarize(records []FrameRecord, from, to time.Duration, frameInterval time.Duration) Report {
	var z Summarizer
	return z.Summarize(records, from, to, frameInterval)
}

// SummarizeAll aggregates the full ledger in a throwaway Summarizer.
func SummarizeAll(records []FrameRecord, frameInterval time.Duration) Report {
	var z Summarizer
	return z.SummarizeAll(records, frameInterval)
}

// Summarize aggregates records whose capture time falls in [from, to).
// frameInterval is used for freeze-duration accounting; a zero value
// defaults to 33 ms.
func (z *Summarizer) Summarize(records []FrameRecord, from, to time.Duration, frameInterval time.Duration) Report {
	if frameInterval <= 0 {
		frameInterval = 33 * time.Millisecond
	}
	var rep Report
	net, disp := &z.net, &z.disp
	net.Reset()
	disp.Reset()
	// Size the sample buffers exactly: at most one allocation each
	// instead of append's doublings, and none once they are that large.
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
		if span := to - from; span > 0 {
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

// SummarizeAll aggregates the full ledger. The bitrate is computed over the
// span of observed capture times.
func (z *Summarizer) SummarizeAll(records []FrameRecord, frameInterval time.Duration) Report {
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
	return z.Summarize(records, lo, hi+frameInterval, frameInterval)
}

// arrived reports whether the frame completed at the receiver (displayed
// or not).
func arrived(r FrameRecord) bool {
	return r.Outcome == Delivered || (r.Outcome == Dropped && r.Arrival > 0)
}

// DelaySeries extracts (captureSeconds, networkDelayMs) points for every
// frame that completed at the receiver — the raw material for the Figure 1
// timeline.
func DelaySeries(records []FrameRecord) (xs, ys []float64) {
	for _, r := range records {
		if !arrived(r) {
			continue
		}
		xs = append(xs, r.CaptureTS.Seconds())
		ys = append(ys, r.NetworkDelay().Seconds()*1000)
	}
	return xs, ys
}

// CDF returns sorted per-frame network delays in milliseconds (over frames
// that completed at the receiver) and the corresponding cumulative
// fractions — the material for Figure 3. A window with no completed
// frames returns both slices nil (never one nil and one empty).
func CDF(records []FrameRecord, from, to time.Duration) (delaysMs, fractions []float64) {
	for _, r := range records {
		if !arrived(r) || r.CaptureTS < from || r.CaptureTS >= to {
			continue
		}
		delaysMs = append(delaysMs, r.NetworkDelay().Seconds()*1000)
	}
	if len(delaysMs) == 0 {
		return nil, nil
	}
	sort.Float64s(delaysMs)
	n := len(delaysMs)
	fractions = make([]float64, n)
	for i := range fractions {
		fractions[i] = float64(i+1) / float64(n)
	}
	return delaysMs, fractions
}

// Table renders rows as a fixed-width text table with a header.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.header) {
		cells = cells[:len(t.header)]
	}
	t.rows = append(t.rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, w := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w, c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Ms formats a duration as milliseconds with one decimal.
func Ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", d.Seconds()*1000)
}

// Pct formats a fraction as a percentage with two decimals.
func Pct(f float64) string {
	return fmt.Sprintf("%.2f%%", f*100)
}
