package session

import (
	"strings"
	"testing"

	"rtcadapt/internal/codec"
	"rtcadapt/internal/core"
	"rtcadapt/internal/trace"
)

func TestConfigValidate(t *testing.T) {
	good := steadyConfig(core.NewNativeRC())
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	withBase := func(mut func(*Config)) Config {
		cfg := steadyConfig(core.NewNativeRC())
		mut(&cfg)
		return cfg
	}
	bad := []struct {
		name string
		cfg  Config
		want string
	}{
		{"no trace or link", Config{Controller: core.NewNativeRC()}, "Trace or Config.ForwardLink"},
		{"no controller", Config{Trace: trace.Constant(1e6)}, "Controller"},
		{"negative duration", withBase(func(c *Config) { c.Duration = -1 }), "Duration"},
		{"loss above 1", withBase(func(c *Config) { c.LossProb = 1.5 }), "LossProb"},
		{"feedback loss above 1", withBase(func(c *Config) { c.FeedbackLossProb = 2 }), "FeedbackLossProb"},
		{"negative mtu", withBase(func(c *Config) { c.MTU = -1 }), "MTU"},
		{"bad encoder", withBase(func(c *Config) { c.Encoder = codec.Config{TemporalLayers: 3} }), "Encoder"},
	}
	for _, c := range bad {
		err := c.cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted bad config", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestRunPanicsOnBadEncoder pins that session validation reaches nested
// encoder configs: a config literal that skips Validate still fails at
// construction.
func TestRunPanicsOnBadEncoder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Run accepted an impossible encoder config")
		}
	}()
	cfg := steadyConfig(core.NewNativeRC())
	cfg.Encoder = codec.Config{MinQP: 40, MaxQP: 20}
	Run(cfg)
}
