// Package rtcadapt is a faithful, self-contained reproduction of
// "Adaptive Video Encoder for Network Bandwidth Drops in Real-Time
// Communication" (Meng, Huang, Meng — HKUST, SIGCOMM 2025 Posters & Demos).
//
// The library simulates a complete RTC pipeline — synthetic video source,
// x264-like rate-controlled encoder, RTP packetization, pacing, a
// trace-driven bottleneck link, reassembly, jitter buffering, and
// GCC-style congestion control — and implements the paper's contribution:
// an encoder controller that reacts to bandwidth drops within one feedback
// interval by adjusting codec parameters (QP clamping, frame-size capping,
// VBV re-initialization, keyframe suppression, frame skipping) instead of
// waiting for native rate control to converge.
//
// This root package is the public facade: it re-exports the pieces a user
// composes (session configuration, controllers, estimators, traces, and
// the experiment suite) so downstream code imports only "rtcadapt".
//
// Quick start:
//
//	res := rtcadapt.Run(rtcadapt.SessionConfig{
//	        Trace:      rtcadapt.StepDrop(2.5e6, 0.8e6, 10*time.Second),
//	        Controller: rtcadapt.NewAdaptive(rtcadapt.AdaptiveConfig{}),
//	})
//	fmt.Println(res.Report.P95NetDelay)
package rtcadapt

import (
	"time"

	"rtcadapt/internal/cc"
	"rtcadapt/internal/codec"
	"rtcadapt/internal/core"
	"rtcadapt/internal/metrics"
	"rtcadapt/internal/scenario"
	"rtcadapt/internal/session"
	"rtcadapt/internal/trace"
	"rtcadapt/internal/units"
	"rtcadapt/internal/video"
)

// BitsPerSec is a data rate in bits per second (re-exported from
// internal/units so public configs can be built with dimensioned values).
type BitsPerSec = units.BitsPerSec

// Bytes is a data size in bytes.
type Bytes = units.Bytes

// Bits is a data size in bits.
type Bits = units.Bits

// SessionConfig configures one end-to-end simulated RTC session.
type SessionConfig = session.Config

// Result is the output of a session run: the per-frame ledger, aggregate
// report, control-plane timeline, and link statistics.
type Result = session.Result

// Run executes one deterministic end-to-end session.
func Run(cfg SessionConfig) Result { return session.Run(cfg) }

// Controller decides per-frame encoder directives; implementations are the
// paper's adaptive scheme and the baselines.
type Controller = core.Controller

// AdaptiveConfig parameterizes the paper's adaptive controller, including
// the per-mechanism ablation switches.
type AdaptiveConfig = core.AdaptiveConfig

// NewAdaptive returns the paper's adaptive encoder controller.
func NewAdaptive(cfg AdaptiveConfig) *core.Adaptive { return core.NewAdaptive(cfg) }

// NewNativeRC returns the slow-reconfiguration baseline controller.
func NewNativeRC() *core.NativeRC { return core.NewNativeRC() }

// NewResetOnly returns the instant-retarget-only baseline controller.
func NewResetOnly() *core.ResetOnly { return core.NewResetOnly() }

// Estimator is a sender-side bandwidth estimator.
type Estimator = cc.Estimator

// CapacityFunc reads true link capacity at a virtual time (used by the
// oracle estimator).
type CapacityFunc = cc.CapacityFunc

// NewGCC returns a Google-Congestion-Control-style delay-gradient
// estimator with default parameters.
func NewGCC() Estimator { return cc.NewGCC(cc.GCCConfig{}) }

// NewOracle returns a clairvoyant estimator reading the true capacity
// scaled by margin.
func NewOracle(capacity CapacityFunc, margin float64) Estimator {
	return cc.NewOracle(capacity, margin)
}

// Trace is a piecewise-constant bottleneck capacity function.
type Trace = trace.Trace

// Constant returns a fixed-capacity trace.
func Constant(bps BitsPerSec) *Trace { return trace.Constant(bps) }

// StepDrop returns the paper's motivating workload: capacity before until
// dropAt, then after.
func StepDrop(before, after BitsPerSec, dropAt time.Duration) *Trace {
	return compileTrace(scenario.StepDrop(before, after, dropAt, 20*time.Second), 0, 0)
}

// LTE generates a synthetic cellular capacity trace with deep fades (the
// "lte" scenario preset).
func LTE(seed int64, dur time.Duration) *Trace {
	return compileTrace(scenario.MustPreset("lte"), seed, dur)
}

// WiFi generates a synthetic WLAN capacity trace with contention dips
// (the "wifi" scenario preset).
func WiFi(seed int64, dur time.Duration) *Trace {
	return compileTrace(scenario.MustPreset("wifi"), seed, dur)
}

// compileTrace compiles a scenario to its capacity trace. The scenarios
// above are valid by construction, so an error means an impossible
// argument (a non-positive duration) and panics.
func compileTrace(s scenario.Scenario, seed int64, dur time.Duration) *Trace {
	p, err := s.Compile(scenario.CompileConfig{Seed: seed, Duration: dur})
	if err != nil {
		panic(err)
	}
	return p.Trace
}

// ContentClass selects the synthetic video content dynamics.
type ContentClass = video.Class

// Content classes.
const (
	TalkingHead = video.TalkingHead
	ScreenShare = video.ScreenShare
	Gaming      = video.Gaming
	Sports      = video.Sports
)

// Report is the aggregate latency/quality summary of a session window.
type Report = metrics.Report

// FrameRecord is one captured frame's ledger entry.
type FrameRecord = metrics.FrameRecord

// Summarize aggregates records whose capture time falls in [from, to).
func Summarize(records []FrameRecord, from, to, frameInterval time.Duration) Report {
	return metrics.Summarize(records, from, to, frameInterval)
}

// MOS maps a Report to a 1..5 mean-opinion-score QoE estimate.
func MOS(rep Report) float64 { return metrics.MOS(rep) }

// SharedConfig describes the common bottleneck of a multi-flow run.
type SharedConfig = session.SharedConfig

// RunShared executes several flows through one shared bottleneck link and
// returns their results in input order.
func RunShared(shared SharedConfig, flows []SessionConfig) []Result {
	return session.RunShared(shared, flows)
}

// EncoderConfig exposes the x264-like encoder model's knobs for
// SessionConfig.Encoder (temporal layers, VBV sizing, QP bounds, ...).
type EncoderConfig = codec.Config
