package session

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rtcadapt/internal/core"
	"rtcadapt/internal/scenario"
	"rtcadapt/internal/video"
)

// render flattens a result into one string so runs can be compared
// byte-for-byte, not just field-by-field.
func render(res Result) string {
	return fmt.Sprintf("%+v\n%+v\n%+v", res.Report, res.Records, res.Timeline)
}

// TestConcurrentRunsArePure runs the same (config, seed) session from many
// goroutines at once — sharing one immutable Trace pointer, as the parallel
// experiment runner does — and requires every rendered result to be
// byte-identical. Run under -race this doubles as the session-purity audit:
// any hidden shared mutable state between sessions shows up as a data race
// or a diverging transcript.
func TestConcurrentRunsArePure(t *testing.T) {
	tr := compiledTrace(scenario.StepDrop(2.5e6, 0.6e6, 5*time.Second, 20*time.Second))
	newConfig := func() Config {
		// Controllers are stateful and single-use: everything except the
		// shared Trace must be constructed per run.
		return Config{
			Duration:    12 * time.Second,
			Seed:        11,
			Content:     video.Gaming,
			Trace:       tr,
			InitialRate: 1e6,
			Controller:  core.NewAdaptive(core.AdaptiveConfig{}),
			JitterAmp:   2 * time.Millisecond,
			LossProb:    0.002,
		}
	}

	const runs = 8
	outs := make([]string, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = render(Run(newConfig()))
		}(i)
	}
	wg.Wait()

	for i := 1; i < runs; i++ {
		if outs[i] != outs[0] {
			t.Fatalf("concurrent run %d diverged from run 0:\nlen %d vs %d",
				i, len(outs[i]), len(outs[0]))
		}
	}
}
