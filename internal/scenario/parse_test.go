package scenario

import (
	"strings"
	"testing"
	"time"

	"rtcadapt/internal/trace"
)

func TestParseYAML(t *testing.T) {
	doc := `# the paper's motivating drop
name: standard
phases:
  - duration: 10s
    capacity: 2.5Mbps
    max_burst: 40000
  - duration: 20s
    capacity: 800kbps
loss: 0.005
rtt: 50ms
queue_bytes: 18750
nack: true
`
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Name != "standard" || len(s.Phases) != 2 {
		t.Fatalf("decoded %+v", s)
	}
	if s.Phases[0].Capacity != 2.5e6 || s.Phases[0].MaxBurst != 40000 {
		t.Errorf("phase 0: %+v", s.Phases[0])
	}
	if s.Phases[1].Capacity != 0.8e6 || s.Phases[1].Duration != 20*time.Second {
		t.Errorf("phase 1: %+v", s.Phases[1])
	}
	if s.Loss != 0.005 || s.RTT != 50*time.Millisecond || s.Queue != 18750 || !s.NACK {
		t.Errorf("scalars: %+v", s)
	}
}

func TestParseYAMLSequenceAtKeyIndent(t *testing.T) {
	// YAML allows the block sequence at the same indent as its key.
	doc := `name: x
phases:
- duration: 1s
  capacity: 1Mbps
- duration: 2s
  capacity: 2Mbps
`
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(s.Phases) != 2 || s.Phases[1].Capacity != 2e6 {
		t.Fatalf("decoded %+v", s)
	}
}

func TestParseYAMLModel(t *testing.T) {
	doc := `name: cell
model:
  kind: lte
  mean: 3Mbps
  duration: 60s
  step: 200ms
`
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Model == nil || s.Model.Kind != "lte" || s.Model.Mean != 3e6 ||
		s.Model.Duration != 60*time.Second || s.Model.Step != 200*time.Millisecond {
		t.Fatalf("decoded model %+v", s.Model)
	}
}

// TestModelFadeProbRoundTrip pins the fade_prob key: it parses, marshals
// back to the same document, and lowers to the lte generator's fade
// probability.
func TestModelFadeProbRoundTrip(t *testing.T) {
	doc := `name: fig4-lte
model:
  kind: lte
  mean: 2.5Mbps
  fade_prob: 0.02
`
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Model == nil || s.Model.FadeProb != 0.02 {
		t.Fatalf("decoded model %+v", s.Model)
	}
	if out := string(Marshal(s)); out != doc {
		t.Errorf("marshal round trip:\n%s\nwant:\n%s", out, doc)
	}
	p, err := s.Compile(CompileConfig{Seed: 3, Duration: 60 * time.Second})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	want := trace.LTE(3, 60*time.Second, trace.LTEConfig{Mean: 2.5e6, FadeProb: 0.02})
	if !samePoints(p.Trace, want) {
		t.Error("fade_prob did not reach the lte generator")
	}
	if _, err := Parse([]byte("name: w\nmodel:\n  kind: wifi\n  fade_prob: 0.02\n")); err == nil {
		t.Error("Parse accepted fade_prob on a wifi model")
	}
}

func TestParseQuotedScalars(t *testing.T) {
	doc := `name: "with: colon #notcomment"
trace_csv: 'it''s.csv'
`
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Name != "with: colon #notcomment" {
		t.Errorf("Name = %q", s.Name)
	}
	if s.TraceCSV != "it's.csv" {
		t.Errorf("TraceCSV = %q", s.TraceCSV)
	}
}

func TestParseRejectsTwoSources(t *testing.T) {
	doc := `name: x
trace_csv: cap.csv
model:
  kind: lte
`
	_, err := Parse([]byte(doc))
	if err == nil {
		t.Fatal("Parse accepted two capacity sources")
	}
	if !strings.Contains(err.Error(), "exactly one of") {
		t.Errorf("unexpected error %v", err)
	}
}

func TestParseJSON(t *testing.T) {
	doc := `{
  "name": "standard",
  "phases": [
    {"duration": "10s", "capacity": "2.5Mbps"},
    {"duration": "20s", "capacity": 800000}
  ],
  "loss": 0.005,
  "nack": true
}`
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Name != "standard" || len(s.Phases) != 2 || s.Phases[1].Capacity != 8e5 ||
		s.Loss != 0.005 || !s.NACK {
		t.Fatalf("decoded %+v", s)
	}
}

func TestParseYAMLJSONAgree(t *testing.T) {
	yml := `name: x
phases:
  - duration: 1s
    capacity: 1.5Mbps
loss: 0.01
`
	jsn := `{"name": "x", "phases": [{"duration": "1s", "capacity": "1.5Mbps"}], "loss": 0.01}`
	a, err := Parse([]byte(yml))
	if err != nil {
		t.Fatalf("yaml: %v", err)
	}
	b, err := Parse([]byte(jsn))
	if err != nil {
		t.Fatalf("json: %v", err)
	}
	if string(Marshal(a)) != string(Marshal(b)) {
		t.Errorf("yaml and json decode differently:\n%s\nvs\n%s", Marshal(a), Marshal(b))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"empty", "", "empty document"},
		{"tab indent", "name: x\nphases:\n\t- duration: 1s\n", "tab indentation"},
		{"unknown key", "name: x\nphasez:\n  - duration: 1s\n    capacity: 1Mbps\n", `unknown key "phasez"`},
		{"unknown phase key", "name: x\nphases:\n  - duration: 1s\n    capacity: 1Mbps\n    jitter: 2\n", `unknown key "jitter"`},
		{"duplicate key", "name: x\nname: y\n", "duplicate key"},
		{"missing colon", "name x\n", "expected \"key: value\""},
		{"bad rate", "name: x\nphases:\n  - duration: 1s\n    capacity: fast\n", "bad rate"},
		{"bad duration", "name: x\nphases:\n  - duration: soon\n    capacity: 1Mbps\n", "bad duration"},
		{"bad bool", "name: x\nnack: yep\nphases:\n  - duration: 1s\n    capacity: 1Mbps\n", "bad bool"},
		{"phases scalar", "name: x\nphases: 3\n", "must be a sequence"},
		{"model sequence", "name: x\nmodel:\n  - kind: lte\n", "must be a mapping"},
		{"bad json", `{"name": `, "bad json"},
		{"sequence root", "- duration: 1s\n", "must be a mapping, not a sequence"},
		{"json trailing", `{"name": "x"} {"name": "y"}`, "trailing content"},
		{"unterminated quote", "name: 'oops\n", "single-quoted"},
		{"stray indent", "name: x\n    rtt: 50ms\n", "unexpected indent"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("Parse accepted %q", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseErrorsIncludeLine(t *testing.T) {
	doc := "name: x\nphases:\n  - duration: 1s\n    capacity: fast\n"
	_, err := Parse([]byte(doc))
	if err == nil {
		t.Fatal("Parse accepted bad rate")
	}
	if !strings.Contains(err.Error(), "line 4") {
		t.Errorf("error %q does not point at line 4", err)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	for _, name := range PresetNames() {
		t.Run(name, func(t *testing.T) {
			s := MustPreset(name)
			out := Marshal(s)
			back, err := Parse(out)
			if err != nil {
				t.Fatalf("re-parse:\n%s\n%v", out, err)
			}
			again := Marshal(back)
			if string(out) != string(again) {
				t.Errorf("marshal not a fixpoint:\n%s\nvs\n%s", out, again)
			}
		})
	}
}

func TestMarshalRoundTripAwkwardValues(t *testing.T) {
	s := Scenario{
		Name: "awkward",
		Phases: []Phase{
			// 0.3 Mbps is not exactly representable after scaling —
			// formatRate must fall back rather than drift.
			{Duration: 1500 * time.Millisecond, Capacity: 3e5},
			{Duration: time.Second, Capacity: 1234567, MaxBurst: 999, Loss: 0.025, RTT: 70 * time.Millisecond},
		},
		Loss:      0.025,
		BurstLoss: 0.01,
		RTT:       70 * time.Millisecond,
		Queue:     4321,
		NACK:      true,
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	out := Marshal(s)
	back, err := Parse(out)
	if err != nil {
		t.Fatalf("re-parse:\n%s\n%v", out, err)
	}
	if string(Marshal(back)) != string(out) {
		t.Errorf("marshal not a fixpoint:\n%s", out)
	}
	if back.Phases[0].Capacity != s.Phases[0].Capacity ||
		back.Phases[1].Capacity != s.Phases[1].Capacity {
		t.Errorf("capacities drifted: %+v", back.Phases)
	}
}
