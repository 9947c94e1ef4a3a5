package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `pkg: rtcadapt/internal/simtime
BenchmarkSchedulerStep-8   	1000000	        95.2 ns/op	       0 B/op	       0 allocs/op
PASS
`

func TestConvertToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-o", path}, strings.NewReader(sample), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "BenchmarkSchedulerStep") {
		t.Fatalf("output missing benchmark: %s", data)
	}
}

func TestEmptyInputFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(nil, strings.NewReader("no benchmarks here\n"), &stdout, &stderr)
	if code == 0 {
		t.Fatal("empty input accepted")
	}
}

func TestAgainstGate(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-o", base}, strings.NewReader(sample), &stdout, &stderr); code != 0 {
		t.Fatalf("baseline write failed: %s", stderr.String())
	}

	slower := strings.ReplaceAll(sample, "95.2 ns/op", "300.0 ns/op")
	stdout.Reset()
	code := run([]string{"-against", base, "-max-ns-ratio", "1.5"}, strings.NewReader(slower), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("3x regression passed the 1.5x gate (exit %d): %s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "REGRESSION") {
		t.Fatalf("no REGRESSION line: %s", stdout.String())
	}

	stdout.Reset()
	code = run([]string{"-against", base, "-max-ns-ratio", "1.5"}, strings.NewReader(sample), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("identical run failed the gate: %s", stdout.String())
	}

	// A renamed benchmark matches no baseline entry: the gate must fail
	// rather than pass having compared nothing.
	renamed := strings.ReplaceAll(sample, "BenchmarkSchedulerStep-8", "BenchmarkSchedulerStepRenamed-8")
	stdout.Reset()
	code = run([]string{"-against", base, "-max-ns-ratio", "1.5"}, strings.NewReader(renamed), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("gate with no matching benchmark passed (exit %d): %s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "NO MATCH") {
		t.Fatalf("no NO MATCH line: %s", stdout.String())
	}

	// Without a ratio gate, an unmatched run is a plain report.
	stdout.Reset()
	if code := run([]string{"-against", base}, strings.NewReader(renamed), &stdout, &stderr); code != 0 {
		t.Fatalf("ungated report of an unmatched run failed (exit %d): %s", code, stdout.String())
	}
}

// TestLatestBaseline: -against auto must resolve the newest committed
// baseline generation numerically, not lexically.
func TestLatestBaseline(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_2.json", "BENCH_7.json", "BENCH_10.json", "BENCH_x.json", "NOTBENCH_99.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("[]"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := latestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "BENCH_10.json"); got != want {
		t.Errorf("latestBaseline = %q, want %q", got, want)
	}

	empty := t.TempDir()
	if _, err := latestBaseline(empty); err == nil {
		t.Error("latestBaseline on a dir with no baselines: want error, got nil")
	}
}
