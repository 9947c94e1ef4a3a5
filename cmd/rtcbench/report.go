package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// metricDef declares one metric the way BENCHMARK.json does.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs are the metrics a user of the simulator sees: every timed
// run reports each as the median over its samples.
func endToEndDefs() []metricDef {
	return []metricDef{
		{Name: "batch_s", Unit: "s", Better: "lower", Bound: 0.25},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
		{Name: "alloc_mb_per_batch", Unit: "MB", Better: "lower", Bound: 0.05},
		{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	}
}

// perLayerDefs are the traced run's metrics, in report order.
func perLayerDefs() []metricDef {
	defs := []metricDef{
		{Name: "simtime.events_per_vs", Unit: "1/vs", Better: "lower"},
		{Name: "simtime.depth_mean", Unit: "count", Better: "lower"},
		{Name: "simtime.ns_per_event", Unit: "ns", Better: "lower"},
		{Name: "netem.packets_per_vs", Unit: "1/vs", Better: "lower"},
		{Name: "netem.ns_per_packet", Unit: "ns", Better: "lower"},
		{Name: "netem.delivered_frac", Unit: "frac", Better: "higher"},
		{Name: "pacer.ns_per_packet", Unit: "ns", Better: "lower"},
		{Name: "rtp.ns_per_packet", Unit: "ns", Better: "lower"},
		{Name: "codec.frames_per_vs", Unit: "1/vs", Better: "lower"},
		{Name: "codec.ns_per_frame", Unit: "ns", Better: "lower"},
		{Name: "codec.skip_frac", Unit: "frac", Better: "lower"},
		{Name: "cc.ns_per_call", Unit: "ns", Better: "lower"},
		{Name: "core.ns_per_call", Unit: "ns", Better: "lower"},
		{Name: "video.ns_per_frame", Unit: "ns", Better: "lower"},
		{Name: "session.rx_ns_per_packet", Unit: "ns", Better: "lower"},
		{Name: "session.setup_us", Unit: "us", Better: "lower"},
		{Name: "session.result_us", Unit: "us", Better: "lower"},
		{Name: "scenario.us_per_build", Unit: "us", Better: "lower"},
		{Name: "metrics.us_per_session", Unit: "us", Better: "lower"},
		{Name: "runtime.gc_cpu_frac", Unit: "frac", Better: "lower"},
		{Name: "obs.overhead_frac", Unit: "frac", Better: "lower"},
		{Name: "trace_overhead_frac", Unit: "frac", Better: "lower"},
		{Name: "unattributed_frac", Unit: "frac", Better: "lower"},
	}
	for _, l := range ledgerLayers() {
		defs = append(defs, metricDef{Name: "ledger." + l + "_frac", Unit: "frac", Better: "lower"})
	}
	return defs
}

// lineValue is one metric on the result line.
type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the single-line result of one workload run.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]lineValue `json:"metrics"`
}

// pick selects defs from values; a missing metric is a benchmark bug.
func pick(defs []metricDef, values map[string]float64) (map[string]lineValue, error) {
	out := make(map[string]lineValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = lineValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// dist is one end-to-end metric of a run: the reported value and the
// distribution of the samples it was reduced from.
type dist struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func newDist(unit string, value float64, xs []float64) dist {
	q1, q3 := quartiles(xs)
	return dist{Unit: unit, Value: value, Median: median(xs), Q1: q1, Q3: q3, N: len(xs), Samples: xs}
}

// workloadReport is one workload's entry in the full report.
type workloadReport struct {
	Name      string   `json:"name"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// VirtualSPerBatch is the simulated session time one batch covers;
	// batch_s divided into it is virtual seconds per wall second.
	VirtualSPerBatch float64            `json:"virtual_s_per_batch,omitempty"`
	EndToEnd         map[string]dist    `json:"end_to_end"`
	Extra            map[string]dist    `json:"extra,omitempty"`
	PerLayer         map[string]float64 `json:"per_layer"`
	Detail           map[string]float64 `json:"detail,omitempty"`
	TracedRounds     int                `json:"traced_rounds"`
}

// report is the full output of `rtcbench -o`.
type report struct {
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	GoVersion string           `json:"go"`
	Workloads []workloadReport `json:"workloads"`
}

// fullReport measures one workload end to end and per layer.
func fullReport(w workload, seed int64, seconds float64, gold goldens, chromeDir string) (workloadReport, error) {
	t, err := runTimed(w, seed, seconds, gold)
	if err != nil {
		return workloadReport{}, err
	}
	tr, err := runTracedWorkload(w, seed, seconds, gold, chromeDir != "")
	if err != nil {
		return workloadReport{}, err
	}
	if err := writeChrome(chromeDir, w.name, tr.tracer); err != nil {
		return workloadReport{}, err
	}
	r := workloadReport{
		Name:             w.name,
		Attempted:        t.checks.attempted + tr.checks.attempted,
		Failed:           t.checks.failed + tr.checks.failed,
		Failures:         append(slices.Clone(t.checks.messages), tr.checks.messages...),
		VirtualSPerBatch: t.virtualS,
		EndToEnd:         map[string]dist{},
		PerLayer:         tr.perLayer,
		Detail:           tr.experiments,
		TracedRounds:     tr.rounds,
	}
	r.Correct = r.Failed == 0
	e2e := t.endToEnd()
	for _, d := range endToEndDefs() {
		r.EndToEnd[d.Name] = newDist(d.Unit, e2e[d.Name].value, e2e[d.Name].samples)
	}
	if t.virtualS > 0 {
		var vsps []float64
		for _, s := range e2e["batch_s"].samples {
			vsps = append(vsps, t.virtualS/s)
		}
		r.Extra = map[string]dist{"vsps": newDist("vs/s", t.virtualS/e2e["batch_s"].value, vsps)}
	}
	return r, nil
}

// writeChrome writes a workload's spans when a directory was asked for.
func writeChrome(dir, name string, tr *tracer) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return tr.writeChrome(fmt.Sprintf("%s/%s.json", dir, name))
}

// median is the middle sample, or the mean of the middle two.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// readReports decodes every report in a file: one JSON document, or
// several concatenated.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var out []report
	for {
		var r report
		err := dec.Decode(&r)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no reports", path)
	}
	return out, nil
}

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmark(path string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// samplesOf returns the paired samples of one (workload, metric) on one
// side: each run's value when the side has several runs, else the one
// run's per-batch samples.
func samplesOf(reps []report, workload, metric string) []float64 {
	var out []float64
	for _, r := range reps {
		for _, w := range r.Workloads {
			if w.Name != workload {
				continue
			}
			d, ok := w.EndToEnd[metric]
			if !ok {
				continue
			}
			if len(reps) == 1 {
				return d.Samples
			}
			out = append(out, d.Value)
		}
	}
	return out
}

// verdict applies the rules for claiming a gain and for ruling out a
// regression. A gain needs the candidate to win at least nine tenths of
// the pairs and the medians to differ by more than the base's quartile
// spread. A regression is a median worse than the base's by more than the
// bound. Where the base's own spread is wider than the bound the result is
// unresolved, unless every candidate sample beats every base sample.
func verdict(def metricDef, base, cand []float64) (string, float64) {
	n := min(len(base), len(cand))
	if n == 0 {
		return "missing", 0
	}
	lower := def.Better != "higher"
	better := func(c, b float64) bool {
		if lower {
			return c < b
		}
		return c > b
	}
	wins := 0
	for i := 0; i < n; i++ {
		if better(cand[i], base[i]) {
			wins++
		}
	}
	share := float64(wins) / float64(n)
	mb, mc := median(base), median(cand)
	q1, q3 := quartiles(base)
	if share >= 0.9 && math.Abs(mc-mb) > q3-q1 {
		return "better", share
	}
	allBetter := true
	for _, c := range cand {
		for _, b := range base {
			allBetter = allBetter && better(c, b)
		}
	}
	if (q3-q1)/math.Abs(mb) > def.Bound && !allBetter {
		return "unresolved", share
	}
	worse := (mc - mb) / math.Abs(mb)
	if !lower {
		worse = -worse
	}
	if worse > def.Bound {
		return "worse", share
	}
	return "same", share
}

// compare prints, for every workload and end-to-end metric, both sides'
// medians and quartiles, the candidate's share of won pairs and a
// verdict, then the per-layer medians for reference.
func compare(w io.Writer, benchPath, basePath, candPath string) error {
	bench, err := readBenchmark(benchPath)
	if err != nil {
		return err
	}
	base, err := readReports(basePath)
	if err != nil {
		return err
	}
	cand, err := readReports(candPath)
	if err != nil {
		return err
	}
	var out strings.Builder
	fmt.Fprintf(&out, "%-14s %-19s %-36s %-36s %5s %8s  %s\n",
		"workload", "metric", "base median [q1, q3]", "cand median [q1, q3]", "pairs", "cand won", "verdict")
	for _, wl := range workloads() {
		for _, def := range bench.EndToEnd {
			bs, cs := samplesOf(base, wl.name, def.Name), samplesOf(cand, wl.name, def.Name)
			if len(bs) == 0 && len(cs) == 0 {
				continue
			}
			v, share := verdict(def, bs, cs)
			fmt.Fprintf(&out, "%-14s %-19s %-36s %-36s %5d %7.0f%%  %s\n",
				wl.name, def.Name, spread(bs), spread(cs), min(len(bs), len(cs)), 100*share, v)
		}
	}
	fmt.Fprintf(&out, "\n%-14s %-30s %14s %14s %9s\n", "workload", "per-layer metric", "base median", "cand median", "cand/base")
	for _, wl := range workloads() {
		for _, def := range bench.PerLayer {
			bs, cs := layerValues(base, wl.name, def.Name), layerValues(cand, wl.name, def.Name)
			if len(bs) == 0 || len(cs) == 0 {
				continue
			}
			mb, mc := median(bs), median(cs)
			fmt.Fprintf(&out, "%-14s %-30s %14.6g %14.6g %9.3f\n", wl.name, def.Name, mb, mc, ratio(mc, mb))
		}
	}
	_, err = io.WriteString(w, out.String())
	return err
}

// spread renders a median with its quartiles.
func spread(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", median(xs), q1, q3)
}

// layerValues collects one per-layer metric across a side's runs.
func layerValues(reps []report, workload, metric string) []float64 {
	var out []float64
	for _, r := range reps {
		for _, w := range r.Workloads {
			if v, ok := w.PerLayer[metric]; ok && w.Name == workload {
				out = append(out, v)
			}
		}
	}
	return out
}
