package metrics

import (
	"math/rand"
	"testing"
	"time"
)

const frame = 33 * time.Millisecond

// seededLedger returns n frame records at 30 fps whose outcomes, delays,
// sizes and quality come from seed. Delays are whole milliseconds from a
// narrow range, so percentiles land on ties; about one dropped frame in
// two arrived too late to display, a latency sample with no display
// sample.
func seededLedger(seed int64, n int) []FrameRecord {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]FrameRecord, n)
	for i := range recs {
		ts := time.Duration(i) * frame
		r := FrameRecord{Index: int32(i), CaptureTS: ts, SSIM: 0.7 + 0.3*rng.Float64()}
		delay := time.Duration(20+rng.Intn(1+rng.Intn(400))) * time.Millisecond
		switch p := rng.Intn(100); {
		case p < 75:
			r.Outcome = Delivered
			r.Arrival = ts + delay
			r.DisplayAt = r.Arrival + time.Duration(rng.Intn(60))*time.Millisecond
			r.Bytes = int32(500 + rng.Intn(20000))
		case p < 88:
			r.Outcome = Skipped
		default:
			r.Outcome = Dropped
			r.Bytes = int32(500 + rng.Intn(20000))
			if rng.Intn(2) == 0 {
				r.Arrival = ts + delay
			}
		}
		recs[i] = r
	}
	return recs
}

// window is one [from, to) a Report is asked for.
type window struct{ from, to time.Duration }

// checkSummarizer compares z's Summarize and SummarizeAll, and the
// package-level wrappers, with the sort-based reference on every window.
func checkSummarizer(t *testing.T, label string, z *Summarizer, recs []FrameRecord, windows []window) {
	t.Helper()
	for _, w := range windows {
		want := refSummarize(recs, w.from, w.to, frame)
		if got := z.Summarize(recs, w.from, w.to, frame); got != want {
			t.Fatalf("%s [%v, %v): Summarizer gives\n%+v\nthe sort-based reference\n%+v", label, w.from, w.to, got, want)
		}
		if got := Summarize(recs, w.from, w.to, frame); got != want {
			t.Fatalf("%s [%v, %v): Summarize gives\n%+v\nthe sort-based reference\n%+v", label, w.from, w.to, got, want)
		}
	}
	want := refSummarizeAll(recs, frame)
	if got := z.SummarizeAll(recs, frame); got != want {
		t.Fatalf("%s: Summarizer.SummarizeAll gives\n%+v\nthe sort-based reference\n%+v", label, got, want)
	}
	if got := SummarizeAll(recs, frame); got != want {
		t.Fatalf("%s: SummarizeAll gives\n%+v\nthe sort-based reference\n%+v", label, got, want)
	}
}

// TestSummarizeMatchesReference requires the Summarizer's Reports to equal
// the sort-based reference's field for field, on seeded 30 s ledgers in
// the windows the experiments use and in random ones, and on the edge
// cases: an empty window, a window whose frames all dropped, one with
// late drops only (latency samples but no display samples), one sample,
// all-tied delays, and sample counts whose quantile positions fall
// exactly on an order statistic. One Summarizer serves every case, so
// reuse across windows that grow and shrink is covered too.
func TestSummarizeMatchesReference(t *testing.T) {
	var z Summarizer
	for seed := int64(0); seed < 40; seed++ {
		recs := seededLedger(seed, 901)
		rng := rand.New(rand.NewSource(seed))
		windows := []window{
			{10 * time.Second, 15 * time.Second},
			{10 * time.Second, 20 * time.Second},
			{20 * time.Second, 30 * time.Second},
			{0, 30 * time.Second},
			{40 * time.Second, 50 * time.Second},
		}
		for k := 0; k < 10; k++ {
			from := time.Duration(rng.Intn(901)) * frame
			windows = append(windows, window{from, from + time.Duration(1+rng.Intn(300))*frame})
		}
		checkSummarizer(t, "seeded ledger", &z, recs, windows)
	}

	delivered := func(n int, delay func(i int) time.Duration) []FrameRecord {
		recs := make([]FrameRecord, n)
		for i := range recs {
			ts := time.Duration(i) * frame
			recs[i] = FrameRecord{Index: int32(i), CaptureTS: ts, Outcome: Delivered, Arrival: ts + delay(i),
				DisplayAt: ts + delay(i) + 10*time.Millisecond, Bytes: 1000, SSIM: 0.9}
		}
		return recs
	}
	allDropped := seededLedger(7, 120)
	lateOnly := seededLedger(8, 120)
	for i := range allDropped {
		allDropped[i].Outcome, allDropped[i].Arrival = Dropped, 0
		lateOnly[i].Outcome = Dropped
		lateOnly[i].Arrival = lateOnly[i].CaptureTS + time.Duration(1+i%7)*time.Millisecond
	}
	whole := []window{{0, time.Hour}, {time.Second, 2 * time.Second}, {time.Hour, 2 * time.Hour}, {2 * time.Second, time.Second}}
	checkSummarizer(t, "empty ledger", &z, nil, whole)
	checkSummarizer(t, "all frames dropped", &z, allDropped, whole)
	checkSummarizer(t, "late drops only", &z, lateOnly, whole)
	checkSummarizer(t, "one sample", &z, delivered(1, func(int) time.Duration { return 42 * time.Millisecond }), whole)
	checkSummarizer(t, "all tied", &z, delivered(300, func(int) time.Duration { return 80 * time.Millisecond }), whole)
	checkSummarizer(t, "two values", &z, delivered(300, func(i int) time.Duration { return time.Duration(50+50*(i%2)) * time.Millisecond }), whole)
	// With n samples the quantile positions q·(n-1) are whole numbers
	// when n-1 is a multiple of 100 (up to rounding), so lo == hi.
	for _, n := range []int{2, 3, 5, 11, 21, 41, 101, 201, 301, 901} {
		checkSummarizer(t, "exact positions", &z, delivered(n, func(i int) time.Duration { return time.Duration((i*37)%n) * time.Millisecond }), whole)
	}
}

// FuzzSummarizeEquivalence builds a ledger from fuzzed bytes, one frame
// per byte (outcome, delay and late arrival from its bits, so delays tie
// often), and requires one reused Summarizer to match the sort-based
// reference on a fuzzed window and on the whole ledger.
func FuzzSummarizeEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0x43, 0xFF, 0x80, 0x10}, uint16(0), uint16(8))
	f.Add([]byte{3, 3, 3, 0x43, 0x47}, uint16(1), uint16(3))
	f.Add([]byte{0x10, 0x10, 0x10, 0x10, 0x10, 0x10}, uint16(2), uint16(1))
	var z Summarizer
	f.Fuzz(func(t *testing.T, data []byte, from, to uint16) {
		recs := make([]FrameRecord, len(data))
		for i, b := range data {
			ts := time.Duration(i) * frame
			r := FrameRecord{Index: int32(i), CaptureTS: ts, Bytes: int32(b) * 40, SSIM: float64(b) / 255}
			delay := time.Duration(b>>2&0xF) * 7 * time.Millisecond
			switch b & 3 {
			case 0, 1:
				r.Outcome, r.Arrival, r.DisplayAt = Delivered, ts+delay, ts+delay+time.Duration(b>>6)*time.Millisecond
			case 2:
				r.Outcome = Skipped
			case 3:
				r.Outcome = Dropped
				if b&0x40 != 0 {
					r.Arrival = ts + delay
				}
			}
			recs[i] = r
		}
		checkSummarizer(t, "fuzzed ledger", &z, recs, []window{{time.Duration(from) * frame, time.Duration(to) * frame}})
	})
}

// TestSummarizerZeroAlloc checks that a warm Summarizer aggregates a 30 s
// ledger, whole and in the post-drop window, without allocating.
func TestSummarizerZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	recs := seededLedger(1, 901)
	var z Summarizer
	z.SummarizeAll(recs, frame)
	if got := testing.AllocsPerRun(100, func() {
		z.SummarizeAll(recs, frame)
		z.Summarize(recs, 10*time.Second, 15*time.Second, frame)
	}); got != 0 {
		t.Fatalf("a warm Summarizer allocates %.1f per ledger", got)
	}
}
