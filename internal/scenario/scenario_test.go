package scenario

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"rtcadapt/internal/trace"
	"rtcadapt/internal/units"
)

// samePoints reports whether two traces have exactly the same
// breakpoints — the equivalence notion the preset tests pin (trace names
// are labels, not semantics).
func samePoints(a, b *trace.Trace) bool {
	return slices.Equal(a.Points(), b.Points())
}

func TestValidateRejects(t *testing.T) {
	phased := func(mut func(*Scenario)) Scenario {
		s := Scenario{Name: "x", Phases: []Phase{{Duration: time.Second, Capacity: 1e6}}}
		mut(&s)
		return s
	}
	cases := []struct {
		name string
		s    Scenario
		want string
	}{
		{"no name", phased(func(s *Scenario) { s.Name = "" }), "Name is required"},
		{"comma name", phased(func(s *Scenario) { s.Name = "a,b" }), "must not contain"},
		{"no source", Scenario{Name: "x"}, "exactly one of"},
		{"two sources", phased(func(s *Scenario) { s.TraceCSV = "f.csv" }), "exactly one of"},
		{"zero phase duration", phased(func(s *Scenario) { s.Phases[0].Duration = 0 }), "not positive"},
		{"zero capacity", phased(func(s *Scenario) { s.Phases[0].Capacity = 0 }), "positive finite"},
		{"negative burst", phased(func(s *Scenario) { s.Phases[0].MaxBurst = -1 }), "negative"},
		{"loss above one", phased(func(s *Scenario) { s.Loss = 1.5 }), "outside [0, 1]"},
		{"negative rtt", phased(func(s *Scenario) { s.RTT = -time.Second }), "negative"},
		{"bad model kind", Scenario{Name: "x", Model: &Model{Kind: "5g"}}, "unknown model kind"},
		{"fade prob above one", Scenario{Name: "x", Model: &Model{Kind: "lte", FadeProb: 1.5}}, "outside [0, 1]"},
		{"fade prob on wifi", Scenario{Name: "x", Model: &Model{Kind: "wifi", FadeProb: 0.02}}, "lte model only"},
		{"phase loss disagreement", Scenario{Name: "x", Phases: []Phase{
			{Duration: time.Second, Capacity: 1e6, Loss: 0.01},
			{Duration: time.Second, Capacity: 1e6, Loss: 0.02},
		}}, "disagrees"},
		{"phase rtt disagreement", Scenario{Name: "x", Phases: []Phase{
			{Duration: time.Second, Capacity: 1e6, RTT: 40 * time.Millisecond},
			{Duration: time.Second, Capacity: 1e6, RTT: 80 * time.Millisecond},
		}}, "disagrees"},
		{"phase vs scenario loss", phased(func(s *Scenario) {
			s.Loss = 0.01
			s.Phases[0].Loss = 0.02
		}), "disagrees"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.s.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", tc.s)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateAcceptsAgreeingPhaseFields(t *testing.T) {
	s := Scenario{Name: "x", Phases: []Phase{
		{Duration: time.Second, Capacity: 2e6, Loss: 0.01, RTT: 40 * time.Millisecond},
		{Duration: time.Second, Capacity: 1e6, Loss: 0.01, RTT: 40 * time.Millisecond},
	}}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestCompilePhased(t *testing.T) {
	s := Scenario{
		Name: "x",
		Phases: []Phase{
			{Duration: 10 * time.Second, Capacity: 2.5e6, MaxBurst: 40000},
			{Duration: 20 * time.Second, Capacity: 0.8e6},
		},
		Loss: 0.01,
		RTT:  80 * time.Millisecond,
		NACK: true,
	}
	p, err := s.Compile(CompileConfig{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	want := trace.MustNew("x",
		trace.Point{At: 0, Bps: 2.5e6},
		trace.Point{At: 10 * time.Second, Bps: 0.8e6},
	)
	if !samePoints(p.Trace, want) {
		t.Errorf("trace mismatch: %v", p.Trace.Points())
	}
	if p.Duration != 30*time.Second {
		t.Errorf("Duration = %v, want 30s", p.Duration)
	}
	if p.Loss != 0.01 || p.PropDelay != 40*time.Millisecond || !p.NACK {
		t.Errorf("impairments: %+v", p)
	}
	// MaxBurst 40000 bits = 5000 bytes.
	if p.Queue != 5000 {
		t.Errorf("Queue = %d, want 5000", p.Queue)
	}
}

func TestCompilePhaseImpairmentsPropagate(t *testing.T) {
	s := Scenario{Name: "x", Phases: []Phase{
		{Duration: time.Second, Capacity: 1e6, Loss: 0.02, RTT: 100 * time.Millisecond},
	}}
	p, err := s.Compile(CompileConfig{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if p.Loss != 0.02 || p.PropDelay != 50*time.Millisecond {
		t.Errorf("phase impairments not propagated: %+v", p)
	}
}

func TestCompileModelNeedsDuration(t *testing.T) {
	s := Scenario{Name: "x", Model: &Model{Kind: "lte"}}
	if _, err := s.Compile(CompileConfig{Seed: 1}); err == nil {
		t.Fatal("Compile accepted a model scenario with no duration")
	}
	p, err := s.Compile(CompileConfig{Seed: 1, Duration: 10 * time.Second})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if p.Duration != 10*time.Second {
		t.Errorf("Duration = %v, want 10s", p.Duration)
	}
}

func TestCompileModelSeeded(t *testing.T) {
	s := Scenario{Name: "x", Model: &Model{Kind: "randomwalk", Duration: 20 * time.Second}}
	a, err := s.Compile(CompileConfig{Seed: 7})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	b, err := s.Compile(CompileConfig{Seed: 7})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if !samePoints(a.Trace, b.Trace) {
		t.Error("same seed compiled to different traces")
	}
	c, err := s.Compile(CompileConfig{Seed: 8})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if samePoints(a.Trace, c.Trace) {
		t.Error("different seeds compiled to the same randomwalk trace")
	}
}

func TestCompileTraceCSV(t *testing.T) {
	want := stepDrop(2.5e6, 0.8e6, 10*time.Second)
	dir := t.TempDir()
	path := filepath.Join(dir, "cap.csv")
	if err := os.WriteFile(path, []byte("seconds,bps\n0,2500000\n10,800000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := Scenario{Name: "imported", TraceCSV: path}
	p, err := s.Compile(CompileConfig{Duration: 30 * time.Second})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if !samePoints(p.Trace, want) {
		t.Error("imported trace differs from the source CSV")
	}
	// The last row holds from its time on, so the path spans the compile
	// duration, not just up to the last breakpoint.
	if p.Duration != 30*time.Second {
		t.Errorf("Duration = %v, want the compile duration", p.Duration)
	}
	if p.Trace.Name() != "imported" {
		t.Errorf("Name = %q, want the scenario name", p.Trace.Name())
	}
}

func TestCompileTraceCSVMissingFile(t *testing.T) {
	s := Scenario{Name: "x", TraceCSV: filepath.Join(t.TempDir(), "nope.csv")}
	if _, err := s.Compile(CompileConfig{}); err == nil {
		t.Fatal("Compile accepted a missing trace file")
	}
}

func TestStepDropScenarioMatchesTraceConstructor(t *testing.T) {
	s := StepDrop(2.5e6, 0.8e6, 10*time.Second, 20*time.Second)
	p, err := s.Compile(CompileConfig{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	want := stepDrop(2.5e6, 0.8e6, 10*time.Second)
	if !samePoints(p.Trace, want) {
		t.Error("scenario.StepDrop differs from the reference step drop")
	}
	if p.Trace.Name() != want.Name() {
		t.Errorf("name %q, want %q", p.Trace.Name(), want.Name())
	}
}

func TestQueueOverridesBurst(t *testing.T) {
	s := Scenario{
		Name: "x",
		Phases: []Phase{
			{Duration: time.Second, Capacity: 1e6, MaxBurst: 80000},
		},
		Queue: units.Bytes(1234),
	}
	p, err := s.Compile(CompileConfig{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if p.Queue != 1234 {
		t.Errorf("Queue = %d, want the explicit override", p.Queue)
	}
}

func TestTotalDurationAndDeterministic(t *testing.T) {
	phased := MustNew("p",
		Phase{Duration: time.Second, Capacity: 1e6},
		Phase{Duration: 2 * time.Second, Capacity: 2e6},
	)
	if d := phased.TotalDuration(); d != 3*time.Second {
		t.Errorf("TotalDuration = %v, want 3s", d)
	}
	if !phased.Deterministic() {
		t.Error("phased scenario reported non-deterministic")
	}
	model := Scenario{Name: "m", Model: &Model{Kind: "lte", Duration: 5 * time.Second}}
	if d := model.TotalDuration(); d != 5*time.Second {
		t.Errorf("model TotalDuration = %v, want 5s", d)
	}
	if model.Deterministic() {
		t.Error("model scenario reported deterministic")
	}
}
