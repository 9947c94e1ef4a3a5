package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestCDFSmoke renders the post-drop CDF over the standard scenario: the
// window opens at the 10 s drop, read from the scenario's trace.
func TestCDFSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-chart", "cdf", "-scenario", "standard", "-duration", "12s"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "scenario standard (10s .. 15s)") {
		t.Errorf("CDF window does not start at the drop:\n%s", stdout.String())
	}
}

// TestBadInvocations: every malformed flag combination must print a
// diagnostic to stderr and exit 2 — never panic, never run a session.
func TestBadInvocations(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown scenario", []string{"-scenario", "starlink"}},
		{"unknown chart", []string{"-chart", "pie"}},
		{"unknown controller", []string{"-controller", "psychic"}},
		{"removed -before flag", []string{"-before", "2.5e6"}},
		{"stray positional", []string{"extra-arg"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("run(%v) = %d, want 2", tc.args, code)
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
