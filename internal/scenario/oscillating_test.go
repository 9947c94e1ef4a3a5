package scenario

import (
	"testing"
	"time"

	"rtcadapt/internal/trace"
	"rtcadapt/internal/units"
)

// compileOscillating compiles the square-wave preset builder with the
// given shape.
func compileOscillating(t *testing.T, hi, lo units.BitsPerSec, half, dur time.Duration) *trace.Trace {
	t.Helper()
	s := oscillatingPreset("osc", hi, lo, half, dur)
	p, err := s.Compile(CompileConfig{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p.Trace
}

func TestOscillating(t *testing.T) {
	tr := compileOscillating(t, 2e6, 1e6, time.Second, 4*time.Second)
	for i := 0; i < 4; i++ {
		at := time.Duration(i)*time.Second + 500*time.Millisecond
		want := units.BitsPerSec(2e6)
		if i%2 == 1 {
			want = 1e6
		}
		if bps, _ := tr.RateAt(at); bps != want {
			t.Errorf("Oscillating RateAt(%v) = %v, want %v", at, bps, want)
		}
	}
}

// TestOscillatingPhaseRegression pins the high/low alternation across many
// half-periods. The original implementation derived the next level by
// float-comparing the previous level against hi, which floateq flagged;
// the phase is now tracked with a boolean and this test guards the
// rewrite.
func TestOscillatingPhaseRegression(t *testing.T) {
	const hi, lo units.BitsPerSec = 3.7e6, 1.1e6
	half := 250 * time.Millisecond
	tr := compileOscillating(t, hi, lo, half, 20*time.Second)
	for i := 0; i < 80; i++ {
		at := time.Duration(i)*half + half/2
		want := hi
		if i%2 == 1 {
			want = lo
		}
		if bps, _ := tr.RateAt(at); bps != want {
			t.Fatalf("half-period %d: RateAt(%v) = %v, want %v", i, at, bps, want)
		}
	}
}

// TestOscillatingEqualLevels covers the hi == lo edge case, where a
// level-comparison phase toggle degenerates but an explicit phase bit
// must still produce one breakpoint per half-period.
func TestOscillatingEqualLevels(t *testing.T) {
	tr := compileOscillating(t, 2e6, 2e6, time.Second, 4*time.Second)
	pts := tr.Points()
	if len(pts) != 4 {
		t.Fatalf("got %d breakpoints, want 4", len(pts))
	}
	for i, p := range pts {
		if p.Bps != 2e6 {
			t.Errorf("breakpoint %d: Bps = %v, want 2e6", i, p.Bps)
		}
	}
}
