// Package video provides synthetic video sources. A source emits one
// complexity descriptor per captured frame; the codec package turns
// complexity into encoded bits and quality via its rate-distortion model.
//
// Complexity is expressed in SATD-like units (sum of absolute transformed
// differences), the same internal currency x264's rate control uses:
// Spatial is the intra-coding cost of the frame, Temporal the inter-coding
// (residual) cost given the previous frame. Scene cuts make Temporal
// approach Spatial, which is what triggers keyframe decisions.
package video

import (
	"fmt"
	"time"

	"rtcadapt/internal/stats"
)

// Frame describes one captured frame.
type Frame struct {
	// Index is the zero-based capture index.
	Index int
	// PTS is the capture timestamp.
	PTS time.Duration
	// Spatial is the intra-coding complexity (SATD units).
	Spatial float64
	// Temporal is the inter-coding complexity (SATD units). Always
	// <= Spatial except during noise; scene cuts push it near Spatial.
	Temporal float64
	// SceneCut marks a content discontinuity (an encoder would normally
	// insert an IDR here).
	SceneCut bool
}

// FrameSource is anything that emits capture frames at a fixed rate; the
// synthetic Source implements it, and a session accepts any other.
type FrameSource interface {
	// Next produces the next frame with increasing Index and PTS.
	Next() Frame
	// FPS returns the capture rate.
	FPS() int
	// FrameInterval returns the capture period.
	FrameInterval() time.Duration
}

// Class identifies a content class with distinct complexity dynamics.
type Class int

// Content classes. Calibrated so that at 30 fps and the codec's reference
// quantizer, TalkingHead encodes around 1 Mbps and Sports around 3 Mbps.
const (
	// TalkingHead: low motion, rare scene changes (video call).
	TalkingHead Class = iota
	// ScreenShare: near-zero motion with abrupt full-frame changes
	// (slide flips).
	ScreenShare
	// Gaming: high motion, frequent moderate scene changes.
	Gaming
	// Sports: very high sustained motion, camera pans.
	Sports
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case TalkingHead:
		return "talking-head"
	case ScreenShare:
		return "screen-share"
	case Gaming:
		return "gaming"
	case Sports:
		return "sports"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Classes lists all content classes.
func Classes() []Class { return []Class{TalkingHead, ScreenShare, Gaming, Sports} }

// params holds per-class generator parameters.
type params struct {
	spatialBase  float64 // mean intra complexity
	motionBase   float64 // mean temporal/spatial ratio
	motionSigma  float64 // jitter of the motion ratio
	sceneCutProb float64 // per-frame scene-cut probability
	ar           float64 // AR(1) coefficient for motion persistence
	spatialSigma float64 // per-frame spatial jitter
}

func classParams(c Class) params {
	switch c {
	case TalkingHead:
		return params{spatialBase: 12000, motionBase: 0.10, motionSigma: 0.3, sceneCutProb: 1.0 / 3000, ar: 0.95, spatialSigma: 0.05}
	case ScreenShare:
		return params{spatialBase: 9000, motionBase: 0.02, motionSigma: 0.5, sceneCutProb: 1.0 / 300, ar: 0.5, spatialSigma: 0.02}
	case Gaming:
		return params{spatialBase: 16000, motionBase: 0.30, motionSigma: 0.4, sceneCutProb: 1.0 / 600, ar: 0.85, spatialSigma: 0.10}
	case Sports:
		return params{spatialBase: 18000, motionBase: 0.45, motionSigma: 0.3, sceneCutProb: 1.0 / 900, ar: 0.90, spatialSigma: 0.12}
	}
	panic(fmt.Sprintf("video: unknown class %d", int(c)))
}

// SourceConfig configures a synthetic source.
type SourceConfig struct {
	// Class selects the content dynamics. Default TalkingHead.
	Class Class
	// FPS is the capture rate. Default 30.
	FPS int
	// Seed seeds the source's private PRNG.
	Seed int64
}

// Source generates frames deterministically from its seed. Not safe for
// concurrent use.
type Source struct {
	cfg    SourceConfig
	p      params
	rng    stats.Rand
	index  int
	motion float64 // AR(1) state: temporal/spatial ratio
}

// Validate checks the configuration and reports the first problem found.
// NewSource validates what it accepts; call Validate directly when
// building a SourceConfig that is stored or forwarded rather than passed
// straight to the constructor.
func (c *SourceConfig) Validate() error {
	if c.FPS < 0 {
		return fmt.Errorf("video: negative SourceConfig.FPS %d", c.FPS)
	}
	if c.Class < TalkingHead || c.Class > Sports {
		return fmt.Errorf("video: unknown SourceConfig.Class %d", int(c.Class))
	}
	return nil
}

// NewSource returns a source for the given configuration. It panics on an
// invalid configuration (see Validate).
func NewSource(cfg SourceConfig) *Source {
	s := new(Source)
	s.Init(cfg)
	return s
}

// Init restarts the source as NewSource(cfg) would build it, reseeding its
// PRNG in place. It panics on an invalid configuration (see Validate).
func (s *Source) Init(cfg SourceConfig) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg.FPS = cfg.fps()
	p := classParams(cfg.Class)
	*s = Source{cfg: cfg, p: p, rng: s.rng, motion: p.motionBase}
	s.rng.Seed(cfg.Seed)
}

// FPS returns the capture rate.
func (s *Source) FPS() int { return s.cfg.FPS }

// FrameInterval returns the capture period.
func (s *Source) FrameInterval() time.Duration { return s.cfg.FrameInterval() }

// fps is the capture rate a source built from c runs at: FPS, or 30
// when FPS is not positive.
func (c *SourceConfig) fps() int {
	if c.FPS <= 0 {
		return 30
	}
	return c.FPS
}

// FrameInterval is the capture period of a source built from c.
func (c *SourceConfig) FrameInterval() time.Duration {
	return time.Duration(float64(time.Second) / float64(c.fps()))
}

// Class returns the content class.
func (s *Source) Class() Class { return s.cfg.Class }

// Next produces the next frame.
func (s *Source) Next() Frame {
	p := s.p
	// Spatial complexity: slowly varying around the class mean.
	spatial := s.rng.Jitter(p.spatialBase, p.spatialSigma)

	// Motion: AR(1) around the class mean with multiplicative noise.
	s.motion = p.ar*s.motion + (1-p.ar)*p.motionBase
	motion := stats.Clamp(s.rng.Jitter(s.motion, p.motionSigma), 0.005, 0.95)

	cut := s.rng.Bool(p.sceneCutProb)
	temporal := spatial * motion
	if cut {
		// A scene change makes inter prediction nearly useless.
		temporal = spatial * stats.Clamp(0.8+0.2*s.rng.Float64(), 0, 1)
		// Motion stays elevated for a few frames after a cut.
		s.motion = stats.Clamp(s.motion*2, 0, 0.9)
	}

	f := Frame{
		Index:    s.index,
		PTS:      time.Duration(s.index) * s.FrameInterval(),
		Spatial:  spatial,
		Temporal: temporal,
		SceneCut: cut,
	}
	s.index++
	return f
}

// Take returns the next n frames.
func (s *Source) Take(n int) []Frame {
	out := make([]Frame, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}
