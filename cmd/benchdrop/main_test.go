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
