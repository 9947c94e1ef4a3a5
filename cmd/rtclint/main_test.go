package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// writeModule lays out a throwaway module for driver tests. Package paths
// reuse names from the production layer table so importlayer stays quiet.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module tinymod\n\ngo 1.22\n"
	for name, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

// dirtyMetrics is a package with one fixable maporder finding and one
// stale directive.
var dirtyMetrics = map[string]string{
	"internal/metrics/m.go": `// Package metrics is a driver-test fixture with known findings.
package metrics

// Keys returns map keys in iteration order.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`,
	"internal/metrics/stale.go": `package metrics

//lint:ignore transitivepurity stale by construction
func version() int { return 1 }
`,
}

func TestListByteDeterministic(t *testing.T) {
	code1, out1, _ := runCLI(t, "-list")
	code2, out2, _ := runCLI(t, "-list")
	if code1 != 0 || code2 != 0 {
		t.Fatalf("-list exit codes = %d, %d, want 0, 0", code1, code2)
	}
	if out1 != out2 {
		t.Errorf("-list output differs between runs:\n%s\nvs\n%s", out1, out2)
	}
	lines := strings.Split(strings.TrimRight(out1, "\n"), "\n")
	if len(lines) != 6 {
		t.Errorf("-list printed %d analyzers, want 6:\n%s", len(lines), out1)
	}
	if !sort.StringsAreSorted(lines) {
		t.Errorf("-list output is not sorted by name:\n%s", out1)
	}
	for _, name := range []string{
		"floateq", "maporder", "errdrop", "importlayer", "transitivepurity",
		"unitflow",
	} {
		if !strings.Contains(out1, name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, out1)
		}
	}
}

func TestFindingsByteDeterministic(t *testing.T) {
	dir := writeModule(t, dirtyMetrics)
	code1, out1, _ := runCLI(t, "-C", dir)
	code2, out2, _ := runCLI(t, "-C", dir)
	if code1 != 1 || code2 != 1 {
		t.Fatalf("exit codes = %d, %d, want 1, 1", code1, code2)
	}
	if out1 == "" {
		t.Fatal("no findings printed for a dirty module")
	}
	if out1 != out2 {
		t.Errorf("finding output differs between runs:\n%s\nvs\n%s", out1, out2)
	}

	jcode1, jout1, _ := runCLI(t, "-C", dir, "-json")
	jcode2, jout2, _ := runCLI(t, "-C", dir, "-json")
	if jcode1 != 1 || jcode2 != 1 {
		t.Fatalf("-json exit codes = %d, %d, want 1, 1", jcode1, jcode2)
	}
	if jout1 != jout2 {
		t.Errorf("-json output differs between runs:\n%s\nvs\n%s", jout1, jout2)
	}
	var findings []jsonFinding
	if err := json.Unmarshal([]byte(jout1), &findings); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, jout1)
	}
	if textLines := strings.Count(out1, "\n"); len(findings) != textLines {
		t.Errorf("-json has %d findings, text output has %d lines", len(findings), textLines)
	}
	for _, f := range findings {
		if f.File == "" || f.Line == 0 || f.Analyzer == "" || f.Message == "" {
			t.Errorf("finding with empty field: %+v", f)
		}
		if filepath.IsAbs(f.File) {
			t.Errorf("finding path %q not relativized to the module root", f.File)
		}
	}
}

func TestJSONEmptyOnCleanModule(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/metrics/m.go": `// Package metrics is a clean driver-test fixture.
package metrics

// Total sums integers.
func Total(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}
`,
	})
	code, out, _ := runCLI(t, "-C", dir, "-json")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	if out != "[]\n" {
		t.Errorf("clean -json output = %q, want %q", out, "[]\n")
	}
}

func TestFixEndToEnd(t *testing.T) {
	dir := writeModule(t, dirtyMetrics)
	code, _, stderr := runCLI(t, "-C", dir, "-fix")
	if code != 0 {
		t.Fatalf("-fix exit code = %d, want 0 (everything fixable); stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "fixed") {
		t.Errorf("-fix did not report rewritten files; stderr:\n%s", stderr)
	}
	fixed, err := os.ReadFile(filepath.Join(dir, "internal", "metrics", "m.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fixed), "sort.Slice(") {
		t.Errorf("maporder fix not applied:\n%s", fixed)
	}
	stale, err := os.ReadFile(filepath.Join(dir, "internal", "metrics", "stale.go"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(stale), "lint:ignore") {
		t.Errorf("stale directive not deleted:\n%s", stale)
	}
	if code, _, _ := runCLI(t, "-C", dir); code != 0 {
		t.Errorf("module not clean after -fix (exit %d)", code)
	}
}

func TestRunSubset(t *testing.T) {
	dir := writeModule(t, dirtyMetrics)
	// transitivepurity alone: the maporder finding and the stale
	// directive (full-suite-only) must both vanish; the module looks clean.
	code, out, _ := runCLI(t, "-C", dir, "-run", "transitivepurity")
	if code != 0 || out != "" {
		t.Errorf("-run transitivepurity: exit %d output %q, want clean", code, out)
	}
	// maporder alone still reports its finding.
	code, out, _ = runCLI(t, "-C", dir, "-run", "maporder")
	if code != 1 || !strings.Contains(out, "[maporder]") {
		t.Errorf("-run maporder: exit %d output %q, want the maporder finding", code, out)
	}
	// Unknown analyzer names are a usage error, not a silent no-op.
	code, _, stderr := runCLI(t, "-C", dir, "-run", "maporder,nosuch")
	if code != 2 || !strings.Contains(stderr, "nosuch") {
		t.Errorf("-run with unknown name: exit %d stderr %q, want 2 naming nosuch", code, stderr)
	}
	// An empty entry (a trailing or lone comma) is its own usage error.
	for _, spec := range []string{"maporder,", ","} {
		code, _, stderr := runCLI(t, "-C", dir, "-run", spec)
		if code != 2 || !strings.Contains(stderr, "empty analyzer name") {
			t.Errorf("-run %q: exit %d stderr %q, want 2 reporting an empty analyzer name", spec, code, stderr)
		}
	}
}

// TestLintRuntimeBudget is the CI smoke gate: the full suite over this
// repository must finish inside a wall-clock budget, so the lint job
// cannot quietly grow into the long pole. Gated behind an env var so
// ordinary test runs don't pay the full-module analysis twice.
func TestLintRuntimeBudget(t *testing.T) {
	budget := os.Getenv("RTCLINT_BUDGET_SECONDS")
	if budget == "" {
		t.Skip("set RTCLINT_BUDGET_SECONDS to enable the lint runtime gate")
	}
	secs, err := strconv.Atoi(budget)
	if err != nil || secs <= 0 {
		t.Fatalf("bad RTCLINT_BUDGET_SECONDS %q", budget)
	}
	start := time.Now()
	code, _, stderr := runCLI(t, "-C", filepath.Join("..", ".."))
	elapsed := time.Since(start)
	if code != 0 {
		t.Fatalf("module not lint-clean (exit %d); stderr:\n%s", code, stderr)
	}
	if elapsed > time.Duration(secs)*time.Second {
		t.Errorf("full suite took %v, over the %ds budget", elapsed, secs)
	}
	t.Logf("full suite: %v (budget %ds)", elapsed, secs)
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCLI(t, "-bogus"); code != 2 {
		t.Errorf("unknown flag: exit code %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "./foo"); code != 2 {
		t.Errorf("unsupported pattern: exit code %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "-C", t.TempDir()); code != 2 {
		t.Errorf("no go.mod: exit code %d, want 2", code)
	}
}
