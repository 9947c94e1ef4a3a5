package session

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// configFieldUse names, for every exported Config field, the file whose
// code sets it: an experiment, the scenario lowering in ApplyPath, or a
// tool. A few fields nothing sets are pinned by the benchmark's replay,
// which reads them; they stay until a benchmark change frees them. Every
// feature earns an experiment: a field no run sets is an option nothing
// measures, so a new field needs an entry here naming what sets it.
var configFieldUse = map[string]struct{ file, note string }{
	"Duration":         {"internal/experiments/experiments.go", "every drop cell"},
	"StartAt":          {"internal/experiments/fairness.go", "Figure 7's late joiner"},
	"Seed":             {"internal/experiments/experiments.go", "every cell"},
	"Content":          {"internal/experiments/experiments.go", "every drop cell"},
	"FPS":              {"cmd/rtcbench/trace.go", "pinned: the traced replay reads it; nothing sets it"},
	"VideoSource":      {"cmd/rtcbench/trace.go", "the traced benchmark run's own source"},
	"Audio":            {"cmd/rtcsim/main.go", "-audio; the benchmark's replay also reads it"},
	"Trace":            {"internal/experiments/loss.go", "Figure 5's constant link; ApplyPath sets it from every scenario"},
	"ForwardLink":      {"internal/experiments/sfuexp.go", "Figure 9's uplink"},
	"PropDelay":        {"internal/scenario/scenario.go", "scenario rtt, lowered by ApplyPath"},
	"JitterAmp":        {"cmd/rtcbench/trace.go", "pinned: the traced replay reads it; nothing sets it"},
	"LossProb":         {"internal/experiments/loss.go", "Figure 5's random loss"},
	"BurstLoss":        {"internal/experiments/loss.go", "Figure 5's burst loss"},
	"FeedbackLossProb": {"cmd/rtcsim/main.go", "-feedbackloss; ROADMAP plans it as a FuzzSession dimension"},
	"QueueLimitBytes":  {"internal/session/session.go", "scenario queue_bytes, lowered by ApplyPath"},
	"NACK":             {"internal/experiments/loss.go", "Figure 5's NACK modes"},
	"Probing":          {"internal/experiments/recovery.go", "Figure 10"},
	"FECGroupSize":     {"internal/experiments/loss.go", "Figure 5's FEC modes"},
	"MTU":              {"cmd/rtcbench/replay.go", "pinned: the replay reads it; nothing sets it"},
	"FeedbackInterval": {"internal/session/session.go", "defaulted to 50 ms in init; nothing sets it"},
	"InitialRate":      {"internal/experiments/experiments.go", "every drop cell"},
	"SSRC":             {"internal/session/shared.go", "a shared link's flows (Figure 7)"},
	"Controller":       {"internal/experiments/experiments.go", "every cell"},
	"NewEstimator":     {"internal/experiments/estimators.go", "Figure 8"},
	"Encoder":          {"internal/experiments/sfuexp.go", "Figure 9's temporal layers"},
	"Recorder":         {"cmd/rtctrace/main.go", "the flight recorder"},
	"PacerBurst":       {"cmd/rtcbench/replay.go", "pinned: the replay reads it; nothing sets it"},
}

// TestConfigFieldsEarnAUse requires a configFieldUse entry for every
// exported Config field, no entry for a field that is gone, and that the
// named file mentions the field.
func TestConfigFieldsEarnAUse(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	fields := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		fields[f.Name] = true
		use, ok := configFieldUse[f.Name]
		if !ok {
			t.Errorf("Config.%s has no configFieldUse entry naming the experiment, scenario field or tool that sets it", f.Name)
			continue
		}
		src, err := os.ReadFile(filepath.Join("..", "..", use.file))
		if err != nil {
			t.Errorf("Config.%s: %v", f.Name, err)
			continue
		}
		if !regexp.MustCompile(`\b` + f.Name + `\b`).Match(src) {
			t.Errorf("Config.%s: %s does not mention it", f.Name, use.file)
		}
	}
	for name := range configFieldUse {
		if !fields[name] {
			t.Errorf("configFieldUse names %s, which is not an exported Config field", name)
		}
	}
}
