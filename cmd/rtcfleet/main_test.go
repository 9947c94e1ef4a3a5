package main

import (
	"bytes"
	"strings"
	"testing"
)

// Bad invocations must fail fast (exit 2) with a diagnostic on stderr
// and nothing on stdout — before any session runs.
func TestRunBadInvocation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of stderr
	}{
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		{"removed sched flag", []string{"-sched", "heap"}, "flag provided but not defined"},
		{"positional arg", []string{"extra"}, "unexpected argument"},
		{"bad out mode", []string{"-out", "xml"}, "unknown -out"},
		{"bad scenario", []string{"-scenario", "starlink"}, "unknown scenario"},
		{"zero sessions", []string{"-sessions", "0", "-duration", "1s"}, "Sessions must be positive"},
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

// A preset name (not a population) runs as a homogeneous population.
func TestRunPresetScenario(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-sessions", "2", "-scenario", "oscillating",
		"-duration", "1s", "-out", "sessions"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	if got := strings.Count(stdout.String(), "\n"); got != 3 {
		t.Errorf("expected header + 2 rows, got %d lines:\n%s", got, stdout.String())
	}
}

// A tiny fleet must produce identical stdout at different shard counts;
// the wall-clock line stays on stderr.
func TestRunStdoutDeterministicAcrossShards(t *testing.T) {
	runWith := func(shards string) string {
		var stdout, stderr bytes.Buffer
		args := []string{"-sessions", "6", "-shards", shards,
			"-scenario", "mixed", "-duration", "1s", "-out", "sessions"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
		}
		if !strings.Contains(stderr.String(), "sessions/s") {
			t.Errorf("stderr missing wall-clock line: %q", stderr.String())
		}
		return stdout.String()
	}
	one, four := runWith("1"), runWith("4")
	if one != four {
		t.Errorf("stdout differs between -shards 1 and -shards 4:\n%s\n---\n%s", one, four)
	}
	if !strings.HasPrefix(one, "index,") {
		t.Errorf("sessions CSV missing header: %q", one[:min(len(one), 60)])
	}
}
