package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

func rec(i int, outcome Outcome, delayMs int, ssim float64, bytes int) FrameRecord {
	cap := time.Duration(i) * 33 * time.Millisecond
	r := FrameRecord{
		Index:     int32(i),
		CaptureTS: cap,
		Outcome:   outcome,
		SSIM:      ssim,
		Bytes:     int32(bytes),
	}
	if outcome == Delivered {
		r.Arrival = cap + time.Duration(delayMs)*time.Millisecond
		r.DisplayAt = r.Arrival + 10*time.Millisecond
	}
	return r
}

func TestSummarizeCounts(t *testing.T) {
	records := []FrameRecord{
		rec(0, Delivered, 50, 0.97, 4000),
		rec(1, Delivered, 60, 0.97, 4000),
		rec(2, Skipped, 0, 0.80, 0),
		rec(3, Dropped, 0, 0.75, 4000),
		rec(4, Delivered, 70, 0.96, 4000),
	}
	rep := Summarize(records, 0, time.Second, 33*time.Millisecond)
	if rep.Frames != 5 || rep.DeliveredFrames != 3 || rep.SkippedFrames != 1 || rep.DroppedFrames != 1 {
		t.Errorf("counts: %+v", rep)
	}
	if rep.MeanNetDelay != 60*time.Millisecond {
		t.Errorf("MeanNetDelay = %v", rep.MeanNetDelay)
	}
	if rep.MaxNetDelay != 70*time.Millisecond {
		t.Errorf("MaxNetDelay = %v", rep.MaxNetDelay)
	}
	wantSSIM := (0.97 + 0.97 + 0.80 + 0.75 + 0.96) / 5
	if math.Abs(rep.MeanSSIM-wantSSIM) > 1e-9 {
		t.Errorf("MeanSSIM = %v, want %v", rep.MeanSSIM, wantSSIM)
	}
	// Display delay = network + 10 ms.
	if rep.MeanDisplayDelay != 70*time.Millisecond {
		t.Errorf("MeanDisplayDelay = %v", rep.MeanDisplayDelay)
	}
}

func TestSummarizeWindow(t *testing.T) {
	var records []FrameRecord
	for i := 0; i < 100; i++ {
		records = append(records, rec(i, Delivered, 50, 0.95, 1000))
	}
	// Window covering frames 30..59 (capture 990ms..1980ms).
	rep := Summarize(records, 990*time.Millisecond, 1980*time.Millisecond, 33*time.Millisecond)
	if rep.Frames != 30 {
		t.Errorf("windowed frames = %d, want 30", rep.Frames)
	}
}

func TestSummarizeFreezeAccounting(t *testing.T) {
	records := []FrameRecord{
		rec(0, Delivered, 50, 0.95, 1000),
		rec(1, Dropped, 0, 0.7, 1000),
		rec(2, Dropped, 0, 0.6, 1000),
		rec(3, Delivered, 50, 0.95, 1000),
		rec(4, Skipped, 0, 0.8, 0),
		rec(5, Delivered, 50, 0.95, 1000),
	}
	rep := Summarize(records, 0, time.Second, 33*time.Millisecond)
	// The two-slot drop run is a freeze; the single skipped slot is a
	// frame-rate reduction, not a stall.
	if rep.FreezeCount != 1 {
		t.Errorf("FreezeCount = %d, want 1", rep.FreezeCount)
	}
	if rep.LongestFreeze != 66*time.Millisecond {
		t.Errorf("LongestFreeze = %v, want 66ms", rep.LongestFreeze)
	}
}

func TestSummarizeTrailingFreeze(t *testing.T) {
	records := []FrameRecord{
		rec(0, Delivered, 50, 0.95, 1000),
		rec(1, Dropped, 0, 0.7, 1000),
		rec(2, Dropped, 0, 0.6, 1000),
	}
	rep := Summarize(records, 0, time.Second, 33*time.Millisecond)
	if rep.FreezeCount != 1 {
		t.Errorf("trailing freeze not counted: %+v", rep)
	}
}

func TestSummarizeBitrate(t *testing.T) {
	var records []FrameRecord
	for i := 0; i < 30; i++ { // exactly 1 s of 30 fps
		records = append(records, rec(i, Delivered, 40, 0.95, 4000)) // 32 kbit each
	}
	rep := Summarize(records, 0, time.Second, 33*time.Millisecond)
	want := 30.0 * 4000 * 8
	if math.Abs(rep.Bitrate-want) > 1 {
		t.Errorf("Bitrate = %v, want %v", rep.Bitrate, want)
	}
}

// TestSummarizeBitrateLargeFrames checks that a frame's size is widened
// before it is scaled to bits: 2^29 B and the largest int32 size both
// overflow int32 when multiplied by 8 in the record's own type.
func TestSummarizeBitrateLargeFrames(t *testing.T) {
	for _, bytes := range []int{1 << 29, math.MaxInt32} {
		var records []FrameRecord
		for i := 0; i < 30; i++ {
			records = append(records, rec(i, Delivered, 40, 0.95, bytes))
		}
		rep := Summarize(records, 0, time.Second, 33*time.Millisecond)
		if want := 30.0 * float64(bytes) * 8; rep.Bitrate != want {
			t.Errorf("%d B frames: Bitrate = %v, want %v", bytes, rep.Bitrate, want)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	rep := Summarize(nil, 0, time.Second, 0)
	if rep.Frames != 0 || rep.MeanSSIM != 0 || rep.MeanNetDelay != 0 {
		t.Errorf("empty summary: %+v", rep)
	}
	if rep2 := SummarizeAll(nil, 33*time.Millisecond); rep2.Frames != 0 {
		t.Error("SummarizeAll(nil) not empty")
	}
}

func TestSummarizeAllSpansLedger(t *testing.T) {
	records := []FrameRecord{
		rec(0, Delivered, 40, 0.95, 1000),
		rec(29, Delivered, 40, 0.95, 1000),
	}
	rep := SummarizeAll(records, 33*time.Millisecond)
	if rep.Frames != 2 {
		t.Errorf("frames = %d", rep.Frames)
	}
}

func TestPercentiles(t *testing.T) {
	var records []FrameRecord
	for i := 0; i < 100; i++ {
		records = append(records, rec(i, Delivered, i+1, 0.95, 1000)) // 1..100 ms
	}
	rep := Summarize(records, 0, time.Hour, 33*time.Millisecond)
	if rep.P50NetDelay < 49*time.Millisecond || rep.P50NetDelay > 52*time.Millisecond {
		t.Errorf("P50 = %v", rep.P50NetDelay)
	}
	if rep.P95NetDelay < 94*time.Millisecond || rep.P95NetDelay > 97*time.Millisecond {
		t.Errorf("P95 = %v", rep.P95NetDelay)
	}
	if rep.P99NetDelay < 98*time.Millisecond || rep.P99NetDelay > 100*time.Millisecond {
		t.Errorf("P99 = %v", rep.P99NetDelay)
	}
}

func TestDelaySeries(t *testing.T) {
	records := []FrameRecord{
		rec(0, Delivered, 40, 0.95, 1000),
		rec(1, Skipped, 0, 0.8, 0),
		rec(2, Delivered, 60, 0.95, 1000),
	}
	xs, ys := DelaySeries(records)
	if len(xs) != 2 || len(ys) != 2 {
		t.Fatalf("series lengths %d/%d", len(xs), len(ys))
	}
	if math.Abs(ys[0]-40) > 1e-9 || math.Abs(ys[1]-60) > 1e-9 {
		t.Errorf("ys = %v", ys)
	}
}

func TestCDF(t *testing.T) {
	records := []FrameRecord{
		rec(0, Delivered, 30, 0.95, 1000),
		rec(1, Delivered, 10, 0.95, 1000),
		rec(2, Delivered, 20, 0.95, 1000),
	}
	ds, fs := CDF(records, 0, time.Hour)
	if len(ds) != 3 {
		t.Fatalf("CDF length %d", len(ds))
	}
	if ds[0] != 10 || ds[1] != 20 || ds[2] != 30 {
		t.Errorf("delays not sorted: %v", ds)
	}
	if math.Abs(fs[2]-1) > 1e-9 {
		t.Errorf("last fraction %v", fs[2])
	}
}

func TestCollector(t *testing.T) {
	var c Collector
	c.Add(rec(0, Delivered, 40, 0.95, 1000))
	c.Add(rec(1, Skipped, 0, 0.8, 0))
	if c.Len() != 2 || len(c.Records()) != 2 {
		t.Error("collector accounting")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("scenario", "p95 (ms)", "reduction")
	tb.AddRow("2.5->0.8", "412.0", "63.41%")
	tb.AddRow("4.0->1.0", "388.2", "71.02%", "extra-dropped")
	out := tb.String()
	if !strings.Contains(out, "scenario") || !strings.Contains(out, "63.41%") {
		t.Errorf("table output:\n%s", out)
	}
	if strings.Contains(out, "extra-dropped") {
		t.Error("overflow cell not dropped")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4", len(lines))
	}
}

func TestFormatters(t *testing.T) {
	if Ms(1500*time.Microsecond) != "1.5" {
		t.Errorf("Ms = %q", Ms(1500*time.Microsecond))
	}
	if Pct(0.2866) != "28.66%" {
		t.Errorf("Pct = %q", Pct(0.2866))
	}
}

func TestOutcomeString(t *testing.T) {
	if Delivered.String() != "delivered" || Skipped.String() != "skipped" ||
		Dropped.String() != "dropped" || Outcome(7).String() != "Outcome(7)" {
		t.Error("outcome strings")
	}
}
