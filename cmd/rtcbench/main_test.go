package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// repoRoot is the repository root as seen from this package's directory.
const repoRoot = "../.."

// tinyWorkloads are the four workloads at sizes that keep the test fast.
func tinyWorkloads() []workload {
	return []workload{
		sessionDropWorkload(2, 1),
		fleetMixedWorkload(20, 6),
		sharedWorkload(1, 1),
		figureSuiteWorkload([]string{"figure1"}, 4),
	}
}

// TestWorkloadsEmitEveryMetric runs every workload timed and traced at a
// tiny size and checks that each metric BENCHMARK.json names is measured,
// that every batch, census and traced pass agreed, and that the ledger
// closes.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	gold, err := loadGoldens(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range tinyWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			timed, err := runTimed(w, 3, 0, gold)
			if err != nil {
				t.Fatal(err)
			}
			if timed.checks.failed > 0 || timed.checks.attempted < minBatches {
				t.Fatalf("timed run: %d of %d checks failed: %v", timed.checks.failed, timed.checks.attempted, timed.checks.messages)
			}
			values := map[string]float64{}
			for k, m := range timed.endToEnd() {
				values[k] = m.value
			}
			if _, err := pick(endToEndDefs(), values); err != nil {
				t.Fatal(err)
			}
			for _, d := range endToEndDefs() {
				if !(values[d.Name] > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", d.Name, values[d.Name])
				}
			}

			traced, err := runTracedWorkload(w, 3, 0, gold, false)
			if err != nil {
				t.Fatal(err)
			}
			if traced.checks.failed > 0 {
				t.Fatalf("traced run: %d of %d checks failed: %v", traced.checks.failed, traced.checks.attempted, traced.checks.messages)
			}
			if _, err := pick(perLayerDefs(), traced.perLayer); err != nil {
				t.Fatal(err)
			}
			sum := traced.ledger["unattributed_frac"]
			for _, l := range ledgerLayers() {
				sum += traced.ledger["ledger."+l+"_frac"]
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("ledger sums to %v, want 1", sum)
			}
		})
	}
}

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json to the metric and
// workload definitions the binary emits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the binary %d", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the binary %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	sameDefs := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the binary %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the binary %+v", what, i, got[i], want[i])
			}
		}
	}
	sameDefs("end_to_end", b.EndToEnd, endToEndDefs())
	sameDefs("per_layer", b.PerLayer, perLayerDefs())
}

// TestGoldensCoverDefaultSizes checks that seed 1 of every workload at
// its default size has golden digests to be checked against.
func TestGoldensCoverDefaultSizes(t *testing.T) {
	gold, err := loadGoldens(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		in, err := w.build(1)
		if err != nil {
			t.Fatal(err)
		}
		if gold.lookup(w.name, 1, "batch", in.batchSize) == "" {
			t.Errorf("%s: no golden batch digest for seed 1", w.name)
		}
		if gold.lookup(w.name, 1, "sample", in.sample) == "" {
			t.Errorf("%s: no golden sample digest for seed 1", w.name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), whose spreads decide acceptance.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestVerdict covers the gain, regression and unresolved rules.
func TestVerdict(t *testing.T) {
	def := metricDef{Name: "batch_s", Unit: "s", Better: "lower", Bound: 0.1}
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00}
	for _, c := range []struct {
		name string
		cand []float64
		want string
	}{
		{"faster everywhere", []float64{0.90, 0.91, 0.89, 0.92, 0.88, 0.90, 0.91, 0.89, 0.90, 0.90}, "better"},
		{"slower past the bound", []float64{1.20, 1.21, 1.19, 1.22, 1.18, 1.20, 1.21, 1.19, 1.20, 1.20}, "worse"},
		{"within the bound", []float64{1.03, 1.01, 1.00, 1.04, 0.99, 1.02, 1.01, 1.02, 1.03, 1.00}, "same"},
	} {
		if got, _ := verdict(def, base, c.cand); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.25, 0.75, 1.0}
	if got, _ := verdict(def, noisy, noisy); got != "unresolved" {
		t.Errorf("noisy base: verdict %q, want unresolved", got)
	}
}

// TestFailsWithoutRepository runs the command where only the
// benchmark's own files exist: it must fail without printing a result.
func TestFailsWithoutRepository(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-root", t.TempDir(), "-workload", "session-drop"}, &stdout, &stderr)
	if code == 0 || stdout.Len() > 0 {
		t.Fatalf("exit %d, stdout %q; want a failure and no result", code, stdout.String())
	}
}

// TestCompareReports runs -compare over two sides of ten runs each, where
// the candidate is clearly faster on session-drop.
func TestCompareReports(t *testing.T) {
	dir := t.TempDir()
	bench, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), bench, 0o644); err != nil {
		t.Fatal(err)
	}
	side := func(name string, batch float64) string {
		var b strings.Builder
		for i := 0; i < 10; i++ {
			v := batch * (1 + 0.001*float64(i%3))
			r := report{Seed: int64(i), Workloads: []workloadReport{{
				Name:     "session-drop",
				EndToEnd: map[string]dist{"batch_s": newDist("s", v, []float64{v})},
				PerLayer: map[string]float64{"codec.ns_per_frame": 500 * batch},
			}}}
			data, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(data)
			b.WriteByte('\n')
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, cand := side("base.json", 1.0), side("cand.json", 0.8)
	var stdout, stderr strings.Builder
	if code := run([]string{"-root", dir, "-compare", base, cand}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"session-drop", "batch_s", "better", "codec.ns_per_frame"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output lacks %q:\n%s", want, out)
		}
	}
}
