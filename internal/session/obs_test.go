package session

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"rtcadapt/internal/core"
	"rtcadapt/internal/obs"
	"rtcadapt/internal/scenario"
	"rtcadapt/internal/trace"
	"rtcadapt/internal/video"
)

// recordedConfig is the figure-1 drop scenario with an optional flight
// recorder attached. Controllers cannot be reused, so each call builds a
// fresh config.
func recordedConfig(rec *obs.Recorder) Config {
	return Config{
		Duration:    10 * time.Second,
		Seed:        7,
		Content:     video.TalkingHead,
		Trace:       compiledTrace(scenario.StepDrop(2.5e6, 0.8e6, 5*time.Second, 20*time.Second)),
		InitialRate: 1e6,
		LossProb:    0.001,
		Controller:  core.NewAdaptive(core.AdaptiveConfig{}),
		Recorder:    rec,
	}
}

// TestTraceDeterministic runs the same recorded session twice and demands
// byte-identical trace files in both export formats — the flight
// recorder's core contract.
func TestTraceDeterministic(t *testing.T) {
	export := func() (csvOut, chromeOut []byte) {
		rec := obs.NewRecorder(0)
		Run(recordedConfig(rec))
		tr := rec.Snapshot()
		if len(tr.Events) < 1000 {
			t.Fatalf("suspiciously few events recorded: %d", len(tr.Events))
		}
		if tr.DroppedEvents != 0 {
			t.Fatalf("ring evicted %d events; grow the test capacity", tr.DroppedEvents)
		}
		var c, j bytes.Buffer
		if err := obs.WriteCSV(&c, tr); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteChromeJSON(&j, tr); err != nil {
			t.Fatal(err)
		}
		return c.Bytes(), j.Bytes()
	}
	c1, j1 := export()
	c2, j2 := export()
	if !bytes.Equal(c1, c2) {
		t.Error("CSV exports of same-seed runs differ")
	}
	if !bytes.Equal(j1, j2) {
		t.Error("Chrome JSON exports of same-seed runs differ")
	}

	// The differ agrees, and reads both formats back to the same trace.
	ta, err := obs.ReadTrace(bytes.NewReader(c1))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := obs.ReadTrace(bytes.NewReader(j2))
	if err != nil {
		t.Fatal(err)
	}
	if d := obs.Diff(ta, tb); d != nil {
		t.Errorf("diff reports divergence between formats of identical runs: %v", d)
	}
}

// TestRecorderOffIsIdentical attaches a recorder to a session and demands
// the rendered Result be byte-identical to the unrecorded run: observation
// must not perturb the simulation (docs/results_snapshot.txt stays valid
// with recording on).
func TestRecorderOffIsIdentical(t *testing.T) {
	bare := fmt.Sprintf("%+v", Run(recordedConfig(nil)))
	rec := obs.NewRecorder(0)
	recorded := fmt.Sprintf("%+v", Run(recordedConfig(rec)))
	if bare != recorded {
		t.Fatal("attaching a recorder changed the session result")
	}
	if rec.Len() == 0 {
		t.Fatal("recorder attached but saw no events")
	}
}

// benchConfig is a short steady-state session for recorder-overhead
// benchmarks.
func benchConfig(rec *obs.Recorder) Config {
	return Config{
		Duration:    2 * time.Second,
		Seed:        3,
		Content:     video.TalkingHead,
		Trace:       trace.Constant(2e6),
		InitialRate: 1e6,
		Controller:  core.NewAdaptive(core.AdaptiveConfig{}),
		Recorder:    rec,
	}
}

// BenchmarkRecorderDisabled measures a full session with the recorder
// absent (nil): the instrumented hot paths must cost only their nil
// checks. Compare against BenchmarkRecorderEnabled.
func BenchmarkRecorderDisabled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Run(benchConfig(nil))
	}
}

// BenchmarkRecorderEnabled measures the same session with recording on.
func BenchmarkRecorderEnabled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Run(benchConfig(obs.NewRecorder(0)))
	}
}
