package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// record runs rtctrace in record mode with the common short-session args
// plus extra, failing the test on a nonzero exit.
func record(t *testing.T, extra ...string) string {
	t.Helper()
	args := append([]string{"-duration", "2s", "-seed", "5"}, extra...)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr: %s", args, code, stderr.String())
	}
	return stdout.String()
}

func TestRecordExportsAllFormats(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "t.json")
	csvPath := filepath.Join(dir, "t.csv")
	asciiPath := filepath.Join(dir, "t.txt")
	record(t, "-out", jsonPath)
	record(t, "-out", csvPath)
	record(t, "-out", asciiPath)

	j, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(bytes.TrimSpace(j), []byte("[")) {
		t.Error("json export does not start with a JSON array")
	}
	c, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(c, []byte("type,seq,at_ns,track,kind,attrs")) {
		t.Errorf("csv export missing header: %.60s", c)
	}
	a, err := os.ReadFile(asciiPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(a, []byte("obs timeline")) {
		t.Errorf("ascii export missing timeline banner: %.60s", a)
	}
}

func TestRecordTimelineToStdout(t *testing.T) {
	out := record(t, "-exp", "figure1")
	if !strings.Contains(out, "obs timeline") || !strings.Contains(out, "cc ") {
		t.Fatalf("stdout timeline missing tracks:\n%s", out)
	}
}

func TestInspect(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.csv")
	record(t, "-out", path)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-inspect", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("inspect exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"events over", "codec.frames", "obs timeline"} {
		if !strings.Contains(out, want) {
			t.Errorf("inspect output missing %q:\n%s", want, out)
		}
	}
}

func TestDiffIdenticalRuns(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.csv")
	b := filepath.Join(dir, "b.json")
	record(t, "-exp", "figure1", "-out", a)
	// Same seed, different export format: the diff must see one trace.
	record(t, "-exp", "figure1", "-out", b)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-diff", a, b}, &stdout, &stderr); code != 0 {
		t.Fatalf("diff of identical runs exit %d: %s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "traces identical") {
		t.Errorf("diff output: %s", stdout.String())
	}
}

func TestDiffDivergentRuns(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.csv")
	b := filepath.Join(dir, "b.csv")
	record(t, "-out", a)
	record(t, "-out", b, "-seed", "2")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-diff", a, b}, &stdout, &stderr); code != 1 {
		t.Fatalf("diff of divergent runs exit %d, want 1", code)
	}
	if !strings.Contains(stdout.String(), "traces diverge") {
		t.Errorf("diff output: %s", stdout.String())
	}
}

func TestBadInvocations(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.csv")
	lossy := filepath.Join(dir, "lossy.yaml")
	doc := "name: lossy\nphases:\n  - duration: 1s\n    capacity: 1Mbps\nloss: 2\n"
	if err := os.WriteFile(lossy, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-definitely-not-a-flag"}},
		{"unknown exp", []string{"-exp", "figure99"}},
		{"unknown format", []string{"-format", "xml", "-out", "t.bin"}},
		{"unknown trace", []string{"-scenario", missing}},
		{"unknown controller", []string{"-controller", "psychic"}},
		{"unknown content", []string{"-content", "cats"}},
		{"loss out of range", []string{"-scenario", lossy}},
		{"inspect and diff", []string{"-inspect", "-diff", "a", "b"}},
		{"inspect missing arg", []string{"-inspect"}},
		{"diff one arg", []string{"-diff", "a.csv"}},
		{"stray positional", []string{"whoops"}},
		// The path is a scenario property: the old per-field path flags
		// are unknown flags.
		{"removed -trace flag", []string{"-trace", "drop"}},
		{"removed -tracefile flag", []string{"-tracefile", "drop.csv"}},
		{"removed -before flag", []string{"-before", "2.5e6"}},
		{"removed -after flag", []string{"-after", "0.8e6"}},
		{"removed -dropat flag", []string{"-dropat", "10s"}},
		{"removed -loss flag", []string{"-loss", "0.05"}},
		{"removed -burstloss flag", []string{"-burstloss", "0.05"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("run(%v) = %d, want 2", tc.args, code)
			}
			if stderr.Len() == 0 {
				t.Error("no diagnostic on stderr")
			}
		})
	}
	// Reading a nonexistent trace is a runtime failure (exit 1).
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-inspect", missing}, &stdout, &stderr); code != 1 {
		t.Fatalf("inspect of missing file exit %d, want 1", code)
	}
}
