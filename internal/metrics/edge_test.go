package metrics

import (
	"math"
	"testing"
	"time"
)

// edgeRecords is a small delivered-frame ledger spanning 0..200 ms.
func edgeRecords() []FrameRecord {
	recs := make([]FrameRecord, 0, 6)
	for i := 0; i < 6; i++ {
		ts := time.Duration(i) * 33 * time.Millisecond
		recs = append(recs, FrameRecord{
			Index:     int32(i),
			CaptureTS: ts,
			Arrival:   ts + 40*time.Millisecond,
			DisplayAt: ts + 50*time.Millisecond,
			Bytes:     4000,
			SSIM:      0.95,
			Outcome:   Delivered,
		})
	}
	return recs
}

// TestCDFEmptyWindowSymmetry: a window with no arrivals returns nil for
// BOTH slices — callers zip them, so one nil and one non-nil would panic
// downstream.
func TestCDFEmptyWindowSymmetry(t *testing.T) {
	recs := edgeRecords()
	windows := []struct {
		name     string
		from, to time.Duration
	}{
		{"beyond the session", 10 * time.Second, 20 * time.Second},
		{"zero-width", 100 * time.Millisecond, 100 * time.Millisecond},
		{"inverted", 200 * time.Millisecond, 100 * time.Millisecond},
		{"no records at all", 0, 0},
	}
	for _, w := range windows {
		t.Run(w.name, func(t *testing.T) {
			in := recs
			if w.name == "no records at all" {
				in = nil
			}
			delays, fracs := CDF(in, w.from, w.to)
			if delays != nil || fracs != nil {
				t.Fatalf("CDF = (%v, %v), want (nil, nil)", delays, fracs)
			}
		})
	}

	// Sanity: a populated window returns equal-length slices with the
	// last fraction exactly 1.
	delays, fracs := CDF(recs, 0, time.Second)
	if len(delays) == 0 || len(delays) != len(fracs) {
		t.Fatalf("populated CDF lengths %d/%d", len(delays), len(fracs))
	}
	if fracs[len(fracs)-1] != 1 {
		t.Errorf("last CDF fraction = %v, want 1", fracs[len(fracs)-1])
	}
}

// TestSummarizeZeroDuration: an empty or zero-width window must produce a
// zero report — in particular no NaN from 0/0 means and no infinite
// bitrate from a zero span.
func TestSummarizeZeroDuration(t *testing.T) {
	recs := edgeRecords()
	for _, rep := range []Report{
		Summarize(recs, 100*time.Millisecond, 100*time.Millisecond, 33*time.Millisecond),
		Summarize(nil, 0, time.Second, 33*time.Millisecond),
		Summarize(recs, 5*time.Second, 4*time.Second, 33*time.Millisecond),
	} {
		if rep.Frames != 0 || rep.DeliveredFrames != 0 {
			t.Errorf("empty window counted frames: %+v", rep)
		}
		if math.IsNaN(rep.MeanSSIM) || math.IsNaN(rep.Bitrate) || math.IsInf(rep.Bitrate, 0) {
			t.Errorf("empty window produced NaN/Inf: %+v", rep)
		}
		if rep.MeanNetDelay != 0 || rep.P95NetDelay != 0 || rep.MaxNetDelay != 0 {
			t.Errorf("empty window produced latency stats: %+v", rep)
		}
		if rep.FreezeCount != 0 || rep.TotalFreeze != 0 {
			t.Errorf("empty window counted freezes: %+v", rep)
		}
	}
}

// TestSummarizeSingleFrame: one delivered frame yields well-defined
// percentiles (all equal to its own delay) and a finite bitrate.
func TestSummarizeSingleFrame(t *testing.T) {
	recs := edgeRecords()[:1]
	rep := Summarize(recs, 0, 33*time.Millisecond, 33*time.Millisecond)
	if rep.Frames != 1 || rep.DeliveredFrames != 1 {
		t.Fatalf("frames = %d/%d, want 1/1", rep.Frames, rep.DeliveredFrames)
	}
	want := 40 * time.Millisecond
	for name, got := range map[string]time.Duration{
		"mean": rep.MeanNetDelay, "p50": rep.P50NetDelay,
		"p95": rep.P95NetDelay, "p99": rep.P99NetDelay, "max": rep.MaxNetDelay,
	} {
		if got != want {
			t.Errorf("%s delay = %v, want %v", name, got, want)
		}
	}
	if math.IsNaN(rep.Bitrate) || math.IsInf(rep.Bitrate, 0) || rep.Bitrate <= 0 {
		t.Errorf("single-frame bitrate = %v", rep.Bitrate)
	}
}
