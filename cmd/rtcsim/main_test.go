package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSummaryRuns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-duration", "2s", "-scenario", "constant"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"controller: adaptive", "frames:", "latency"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, stdout.String())
		}
	}
}

// TestScenarioFlag pins the -scenario path: a preset pins the path and
// its natural span unless -duration is given, and a scenario file works
// the same way.
func TestScenarioFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	// "standard" spans 30s naturally; an explicit -duration 2s must win.
	code := run([]string{"-scenario", "standard", "-duration", "2s"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "frames: 61") {
		t.Errorf("-duration 2s did not bound the session:\n%s", stdout.String())
	}

	file := filepath.Join(t.TempDir(), "path.yaml")
	doc := "name: test-drop\nphases:\n  - duration: 1s\n    capacity: 2Mbps\n  - duration: 1s\n    capacity: 800kbps\n"
	if err := os.WriteFile(file, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	// No -duration: the file's 2s natural span decides.
	code = run([]string{"-scenario", file}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "frames: 61") {
		t.Errorf("scenario file's natural span not used:\n%s", stdout.String())
	}
}

// TestScenarioCSV pins the measured-trace path: a CSV row means "from
// here on", so a two-row CSV holds its last rate for the whole default
// 30 s session (901 frames at 30 fps) whether it is given directly or
// through a trace_csv scenario file.
func TestScenarioCSV(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "drop.csv")
	if err := os.WriteFile(csv, []byte("0,2500000\n10,800000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	yaml := filepath.Join(dir, "csvdrop.yaml")
	if err := os.WriteFile(yaml, []byte("name: csvdrop\ntrace_csv: "+csv+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, arg := range []string{csv, yaml} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-scenario", arg}, &stdout, &stderr); code != 0 {
			t.Fatalf("-scenario %s: exit %d, stderr: %s", arg, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), "frames: 901") {
			t.Errorf("-scenario %s did not play the trace's last segment:\n%s", arg, stdout.String())
		}
	}
}

// TestBadInvocations: every malformed flag combination must print a
// diagnostic to stderr and exit nonzero — never panic, never run the
// session.
func TestBadInvocations(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "no-such-trace.csv")
	// scenarioFile writes a scenario document and returns its path.
	scenarioFile := func(name, doc string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name string
		args []string
	}{
		{"undefined flag", []string{"-frobnicate"}},
		{"unknown trace kind", []string{"-scenario", scenarioFile("pigeon.yaml", "name: pigeon\nmodel:\n  kind: carrier-pigeon\n")}},
		{"unknown scenario", []string{"-scenario", "starlink"}},
		{"missing scenario file", []string{"-scenario", missing + ".yaml"}},
		{"missing trace file", []string{"-scenario", missing}},
		{"unknown controller", []string{"-controller", "psychic"}},
		{"unknown estimator", []string{"-estimator", "astrology"}},
		{"unknown content", []string{"-content", "cats"}},
		{"unknown out kind", []string{"-out", "hologram"}},
		{"loss above one", []string{"-scenario", scenarioFile("loss2.yaml", "name: lossy\nphases:\n  - duration: 1s\n    capacity: 1Mbps\nloss: 2\n")}},
		{"negative loss", []string{"-scenario", scenarioFile("lossneg.yaml", "name: lossy\nphases:\n  - duration: 1s\n    capacity: 1Mbps\nloss: -0.1\n")}},
		{"feedback loss above one", []string{"-feedbackloss", "1.5"}},
		{"negative duration", []string{"-duration", "-5s"}},
		{"negative fec group", []string{"-fec", "-3"}},
		{"oversized temporal layers", []string{"-tl", "3"}},
		{"non-numeric seed", []string{"-seed", "banana"}},
		{"stray positional", []string{"extra-arg"}},
		// The path is a scenario property: the old per-field path flags
		// are unknown flags.
		{"removed -trace flag", []string{"-trace", "drop"}},
		{"removed -tracefile flag", []string{"-tracefile", "drop.csv"}},
		{"removed -before flag", []string{"-before", "2.5e6"}},
		{"removed -after flag", []string{"-after", "0.8e6"}},
		{"removed -dropat flag", []string{"-dropat", "10s"}},
		{"removed -loss flag", []string{"-loss", "0.01"}},
		{"removed -burstloss flag", []string{"-burstloss", "0.01"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code == 0 {
				t.Fatalf("run(%v) succeeded, want nonzero exit", tc.args)
			}
			if stderr.Len() == 0 {
				t.Errorf("run(%v): no diagnostic on stderr", tc.args)
			}
			if stdout.Len() != 0 {
				t.Errorf("run(%v): wrote to stdout despite failing: %s", tc.args, stdout.String())
			}
		})
	}
}
