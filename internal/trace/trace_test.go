package trace

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"rtcadapt/internal/units"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name   string
		points []Point
		ok     bool
	}{
		{"empty", nil, false},
		{"no-zero-start", []Point{{At: time.Second, Bps: 1e6}}, false},
		{"negative-rate", []Point{{At: 0, Bps: -1}}, false},
		{"zero-rate", []Point{{At: 0, Bps: 0}}, false},
		{"duplicate", []Point{{At: 0, Bps: 1}, {At: 0, Bps: 2}}, false},
		// NaN compares false against any threshold, so a naive Bps <= 0
		// check admits it; these pin the !(Bps > 0) form.
		{"nan-rate", []Point{{At: 0, Bps: units.BitsPerSec(math.NaN())}}, false},
		{"pos-inf-rate", []Point{{At: 0, Bps: units.BitsPerSec(math.Inf(1))}}, false},
		{"neg-inf-rate", []Point{{At: 0, Bps: units.BitsPerSec(math.Inf(-1))}}, false},
		{"valid", []Point{{At: 0, Bps: 1e6}, {At: time.Second, Bps: 2e6}}, true},
		{"unsorted-valid", []Point{{At: time.Second, Bps: 2e6}, {At: 0, Bps: 1e6}}, true},
	}
	for _, c := range cases {
		_, err := New(c.name, c.points...)
		if (err == nil) != c.ok {
			t.Errorf("%s: err=%v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestRateAt(t *testing.T) {
	tr := MustNew("drop", Point{At: 0, Bps: 2.5e6}, Point{At: 10 * time.Second, Bps: 0.8e6})
	cases := []struct {
		at        time.Duration
		wantBps   units.BitsPerSec
		wantUntil time.Duration
	}{
		{0, 2.5e6, 10 * time.Second},
		{5 * time.Second, 2.5e6, 10 * time.Second},
		{10 * time.Second, 0.8e6, Forever},
		{20 * time.Second, 0.8e6, Forever},
		{-time.Second, 2.5e6, 10 * time.Second},
	}
	for _, c := range cases {
		bps, until := tr.RateAt(c.at)
		if bps != c.wantBps || until != c.wantUntil {
			t.Errorf("RateAt(%v) = %v,%v want %v,%v", c.at, bps, until, c.wantBps, c.wantUntil)
		}
	}
}

func TestLTEDeterministicAndBounded(t *testing.T) {
	a := LTE(42, 30*time.Second, LTEConfig{})
	b := LTE(42, 30*time.Second, LTEConfig{})
	pa, pb := a.Points(), b.Points()
	if len(pa) != len(pb) {
		t.Fatal("same seed produced different lengths")
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed produced different traces")
		}
	}
	cfg := LTEConfig{}
	cfg.defaults()
	for _, p := range pa {
		// Deep fades can push rate to lteFadeDepth * clamped level.
		if p.Bps < units.BitsPerSec(0.1*cfg.Mean*lteFadeDepth-1) || p.Bps > units.BitsPerSec(3*cfg.Mean+1) {
			t.Fatalf("LTE rate %v out of bounds at %v", p.Bps, p.At)
		}
	}
	if slices.Equal(LTE(43, 30*time.Second, LTEConfig{}).Points(), pa) {
		t.Error("different seeds produced identical traces (suspicious)")
	}
}

func TestLTEHasFades(t *testing.T) {
	cfg := LTEConfig{FadeProb: 0.05}
	tr := LTE(7, 60*time.Second, cfg)
	cfg.defaults()
	lo := units.BitsPerSec(math.Inf(1))
	for _, p := range tr.Points() {
		lo = units.BitsPerSec(math.Min(float64(lo), float64(p.Bps)))
	}
	if lo > units.BitsPerSec(0.5*cfg.Mean) {
		t.Errorf("LTE trace with FadeProb=0.05 never faded: min=%v mean=%v", lo, cfg.Mean)
	}
}

func TestWiFiBounds(t *testing.T) {
	cfg := WiFiConfig{}
	tr := WiFi(5, 30*time.Second, cfg)
	cfg.defaults()
	for _, p := range tr.Points() {
		if p.Bps < units.BitsPerSec(0.05*cfg.Mean-1) || p.Bps > units.BitsPerSec(2*cfg.Mean+1) {
			t.Fatalf("WiFi rate %v out of bounds", p.Bps)
		}
	}
}

func TestRandomWalkBounds(t *testing.T) {
	tr := RandomWalk(3, 10*time.Second, 100*time.Millisecond, 1e6, 0.5e6, 2e6)
	for _, p := range tr.Points() {
		if p.Bps < 0.5e6 || p.Bps > 2e6 {
			t.Fatalf("RandomWalk escaped bounds: %v", p.Bps)
		}
	}
}

// TestCSVRoundTrip writes a trace in the "seconds,bps" shape measured
// traces come in (header row, fixed-point columns) and reads it back to
// the identical breakpoints.
func TestCSVRoundTrip(t *testing.T) {
	orig := MustNew("flash-crowd",
		Point{At: 0, Bps: 2.5e6},
		Point{At: 10 * time.Second, Bps: 0.8e6},
		Point{At: 20 * time.Second, Bps: 2.5e6},
	)
	var buf bytes.Buffer
	buf.WriteString("seconds,bps\n")
	for _, p := range orig.Points() {
		fmt.Fprintf(&buf, "%.6f,%.1f\n", p.At.Seconds(), float64(p.Bps))
	}
	got, err := ReadCSV("rt", &buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if !slices.Equal(got.Points(), orig.Points()) {
		t.Errorf("round trip changed the breakpoints: %v -> %v", orig.Points(), got.Points())
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"seconds,bps\nx,100\n",
		"seconds,bps\n1.0,y\n",
		"seconds,bps\n1.0\n",
		"", // no points
	}
	for i, in := range cases {
		if _, err := ReadCSV("bad", strings.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestReadCSVNoHeader(t *testing.T) {
	tr, err := ReadCSV("nh", strings.NewReader("0,1000000\n1.5,500000\n"))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if bps, _ := tr.RateAt(2 * time.Second); bps != 500000 {
		t.Errorf("rate = %v, want 500000", bps)
	}
}

// Property: RateAt's validUntil is consistent — the rate is constant on
// [at, validUntil).
func TestRateSegmentConsistencyProperty(t *testing.T) {
	f := func(seed int64, atMs uint16) bool {
		tr := LTE(seed, 20*time.Second, LTEConfig{})
		at := time.Duration(atMs) * time.Millisecond
		bps, until := tr.RateAt(at)
		if until == Forever {
			return true
		}
		mid := at + (until-at)/2
		bps2, _ := tr.RateAt(mid)
		return bps2 == bps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
