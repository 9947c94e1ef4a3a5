package cli

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"rtcadapt/internal/scenario"
	"rtcadapt/internal/trace"
	"rtcadapt/internal/video"
)

// TestResolveScenarioCSV pins the measured-trace spelling: a .csv
// argument reads as a trace_csv scenario whose path spans the compile
// duration, and a missing file is an error at resolution time.
func TestResolveScenarioCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(path, []byte("seconds,bps\n0,2000000\n1,1000000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := ResolveScenario(path)
	if err != nil {
		t.Fatalf("ResolveScenario(csv): %v", err)
	}
	p, err := s.Compile(scenario.CompileConfig{Duration: 10 * time.Second})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	want := []trace.Point{{At: 0, Bps: 2e6}, {At: time.Second, Bps: 1e6}}
	if got := p.Trace.Points(); !slices.Equal(got, want) {
		t.Errorf("points = %v, want %v", got, want)
	}
	if p.Duration != 10*time.Second {
		t.Errorf("Duration = %v, want the compile duration", p.Duration)
	}
	if _, err := ResolveScenario(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing csv accepted")
	}
}

func TestBuildController(t *testing.T) {
	for _, name := range []string{"native-rc", "reset-only", "adaptive"} {
		c, err := BuildController(name, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Name() != name {
			t.Errorf("controller %q name %q", name, c.Name())
		}
	}
	if _, err := BuildController("nope", false); err == nil {
		t.Error("unknown controller accepted")
	}
}

func TestParseContent(t *testing.T) {
	for _, c := range video.Classes() {
		got, err := ParseContent(c.String())
		if err != nil || got != c {
			t.Errorf("ParseContent(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseContent("cartoons"); err == nil {
		t.Error("unknown content accepted")
	}
}
