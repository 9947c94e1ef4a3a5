package main

import (
	"bytes"
	"strings"
	"testing"
)

// Bad invocations must fail fast (exit 2) with a named error on stderr
// and nothing on stdout — before any experiment runs.
func TestRunBadInvocation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of stderr
	}{
		{"negative seeds", []string{"-exp", "figure1", "-seeds", "-1"}, "-seeds must be at least 1"},
		{"zero seeds", []string{"-exp", "table1", "-seeds", "0"}, "-seeds must be at least 1"},
		{"unknown format", []string{"-exp", "figure1", "-format", "xml"}, "unknown -format"},
		{"negative duration", []string{"-exp", "scenarios", "-duration", "-1s"}, "-duration must be positive"},
		{"unknown experiment", []string{"-exp", "figure99"}, "unknown experiment"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout not empty on error: %q", stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.want)
			}
		})
	}
}

// A single-seed Figure 1 run succeeds and prints the timeline.
func TestRunFigure1(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "figure1", "-seeds", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "Figure 1:") {
		t.Errorf("stdout does not start with the Figure 1 title: %q", stdout.String()[:min(stdout.Len(), 60)])
	}
}

// runOK runs benchdrop and returns its stdout, failing the test on a
// non-zero exit.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("benchdrop %v: exit code = %d, stderr: %s", args, code, stderr.String())
	}
	return stdout.String()
}

// csvLines splits CSV output into lines and checks that every line has
// as many columns as the header.
func csvLines(t *testing.T, label, out string) []string {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("%s: %d lines, want a header and data", label, len(lines))
	}
	cols := strings.Count(lines[0], ",") + 1
	for i, line := range lines {
		if got := strings.Count(line, ",") + 1; got != cols {
			t.Errorf("%s line %d: %d columns, header has %d", label, i, got, cols)
		}
	}
	return lines
}

// Figure 1 is a single run at -seed; its CSV must be that run too.
func TestCSVFigure1HonoursSeed(t *testing.T) {
	seed1 := runOK(t, "-exp", "figure1", "-seed", "1", "-format", "csv")
	seed7 := runOK(t, "-exp", "figure1", "-seed", "7", "-format", "csv")
	csvLines(t, "figure1 -seed 7", seed7)
	if seed1 == seed7 {
		t.Error("-seed 7 CSV is byte-identical to -seed 1")
	}
}

// The frontier CSV sweeps the -grid it was given: the small grid has
// 2 magnitudes × 2 durations at one (loss, RTT).
func TestCSVFrontierHonoursGrid(t *testing.T) {
	out := runOK(t, "-exp", "frontier", "-grid", "small", "-seeds", "1", "-format", "csv")
	if lines := csvLines(t, "frontier", out); len(lines) != 1+4 {
		t.Errorf("small-grid frontier CSV has %d data rows, want 4:\n%s", len(lines)-1, out)
	}
}

// Every -exp id has a CSV form, the scenario sweep included.
func TestCSVScenarios(t *testing.T) {
	out := runOK(t, "-exp", "scenarios", "-scenario", "standard", "-seeds", "1", "-duration", "2s", "-format", "csv")
	lines := csvLines(t, "scenarios", out)
	if lines[0] != "scenario,controller,p95_ms,mean_ssim,delivered_frac" || len(lines) != 1+2 {
		t.Errorf("scenarios CSV: want its header and one row per controller, got:\n%s", out)
	}
}

// -exp all -format csv prints one well-formed section per paper
// experiment, in paperOrder.
func TestCSVEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	out := runOK(t, "-exp", "all", "-seeds", "1", "-format", "csv")
	sections := strings.Split(out, "# ")[1:]
	if len(sections) != len(paperOrder) {
		t.Fatalf("%d sections, want %d", len(sections), len(paperOrder))
	}
	for i, sec := range sections {
		id, body, _ := strings.Cut(sec, "\n")
		if id != paperOrder[i] {
			t.Errorf("section %d is %q, want %q", i, id, paperOrder[i])
		}
		csvLines(t, id, body)
	}
}
