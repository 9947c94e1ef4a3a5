package session

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"rtcadapt/internal/core"
	"rtcadapt/internal/scenario"
	"rtcadapt/internal/simtime"
	"rtcadapt/internal/video"
)

// sessionAllocBudgetPerVS bounds the heap bytes one extra virtual second
// of a standard session allocates. What legitimately scales with session
// length is the result: the frame ledger (30 records of 48 B per second),
// the timeline (10 samples of 48 B per second), the metrics sample buffers
// (two floats per frame) and the packet and report free lists' high-water
// marks — about 4 KB per second together. Setup (PRNG sources, pools,
// estimator) cancels out of the difference. Without recycling packets,
// reports, ledger entries and the estimator windows it is about 22 KB per
// second. Raise the budget only with a note of what allocates per second
// and why it cannot be recycled.
const sessionAllocBudgetPerVS = 6 << 10

// nackSessionAllocBudgetPerVS bounds the same marginal for the standard
// session with 2% loss and NACK on. On top of the result's ~4 KB per
// second, the retransmission buffer may resend any packet, so the session
// never hands packets back to the packetizer and each one is carved from
// a slab (~3 KB per second at the session's rates): about 6.9 KB per
// second together. The NACK machinery itself — the missing set, the NACK
// lists, the reports carrying them — allocates nothing once warm; when
// Collect allocated its list per report and the missing set held pointers
// it was about 7.4 KB. Raise the budget only with a note of what
// allocates per second and why it cannot be recycled.
const nackSessionAllocBudgetPerVS = 7 << 10

// standardSession is the paper's Figure 1 session: 2.5 -> 0.8 Mbps at
// 10 s, adaptive controller over the default GCC estimator.
func standardSession(d time.Duration) Config {
	return Config{
		Duration:    d,
		Seed:        1,
		Content:     video.TalkingHead,
		Trace:       compiledTrace(scenario.MustPreset("standard")),
		InitialRate: 1e6,
		Controller:  core.NewAdaptive(core.AdaptiveConfig{}),
	}
}

// totalAlloc returns the bytes one Run of mk(d) allocates, the least of
// three runs so that a stray runtime allocation cannot fail the gate.
func totalAlloc(mk func(time.Duration) Config, d time.Duration) uint64 {
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		cfg := mk(d)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Run(cfg)
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestSessionAllocBudget gates the marginal allocation of a session: the
// difference between a 60 s and a 30 s standard session, per virtual
// second. Setup costs cancel, so what remains is what scales with traffic.
func TestSessionAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	short, long := totalAlloc(standardSession, 30*time.Second), totalAlloc(standardSession, 60*time.Second)
	perVS := (float64(long) - float64(short)) / 30
	t.Logf("30 s session %d B, 60 s session %d B, marginal %.0f B per virtual second", short, long, perVS)
	if perVS > sessionAllocBudgetPerVS {
		t.Fatalf("a session allocates %.0f B per virtual second, budget %d", perVS, sessionAllocBudgetPerVS)
	}
}

// nackSession is the standard session with 2% forward loss and NACK on:
// gaps, NACK lists and retransmissions every few reports.
func nackSession(d time.Duration) Config {
	cfg := standardSession(d)
	cfg.NACK, cfg.LossProb = true, 0.02
	return cfg
}

// TestNackSessionAllocBudget gates the marginal allocation of a session
// with loss and NACK on, per virtual second.
func TestNackSessionAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	short, long := totalAlloc(nackSession, 30*time.Second), totalAlloc(nackSession, 60*time.Second)
	perVS := (float64(long) - float64(short)) / 30
	t.Logf("30 s session %d B, 60 s session %d B, marginal %.0f B per virtual second", short, long, perVS)
	if perVS > nackSessionAllocBudgetPerVS {
		t.Fatalf("a NACK session allocates %.0f B per virtual second, budget %d", perVS, nackSessionAllocBudgetPerVS)
	}
}

// TestSessionSizeClass pins a Session, with the 8-byte malloc header every
// object over 512 bytes with pointers carries, inside the runtime's
// 768-byte size class. Sessions built outside a shell (RunShared, the SFU
// cells, shared-16flow's sixteen flows) pay one such allocation each: a
// Session that once grew into the 896-byte class cost shared-16flow about
// 30 KB per batch. Keep new state behind a pointer (as fecParts and the
// Summarizer are) rather than let the struct cross the class boundary.
func TestSessionSizeClass(t *testing.T) {
	const mallocHeader, sizeClass = 8, 768
	if size := unsafe.Sizeof(Session{}) + mallocHeader; size > sizeClass {
		t.Fatalf("a Session takes %d B with its malloc header, past the %d B size class: "+
			"the 896 B class cost shared-16flow ~30 KB per batch when fresh sessions last crossed it", size, sizeClass)
	}
}

// TestShellKeepsReverseTrace checks that a recycled session builds its
// reverse link's constant trace only on its first init: a Trace is
// immutable, and rebuilding it cost every warm session about 90 B in
// three objects (a name, a points copy and the Trace).
func TestShellKeepsReverseTrace(t *testing.T) {
	var sh Shell
	sched := simtime.NewScheduler()
	first := sh.New(sched, steadyConfig(core.NewNativeRC())).reverseTrace
	sched.Reset()
	if again := sh.New(sched, dropConfig(core.NewAdaptive(core.AdaptiveConfig{}), 7)).reverseTrace; first == nil || again != first {
		t.Fatalf("a warm init's reverse trace is %p, the first init's %p: rebuilt per session", again, first)
	}
}

// sharedRetainedBudgetPerFlow bounds the heap a kept RunShared Result
// holds per flow once everything else is collected. A 30 s flow keeps its
// ledger, 901 records of 48 B (49,152 B allocated), and its timeline of
// 48 B samples every 100 ms (about 15 KB): about 63 KB measured. With the
// 80 B record the ledger alone was 73,728 B and a flow kept about 88 KB.
const sharedRetainedBudgetPerFlow = 72 << 10

// TestRunSharedRetainedBudget gates the memory a caller keeps: the heap
// still live after a GC while the Results of a shared-16flow-shaped run
// (16 adaptive flows 100 ms apart, 30 s each, on a 24 -> 8 Mbps step
// drop) are held, per flow.
func TestRunSharedRetainedBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	const flowCount = 16
	tr := compiledTrace(scenario.StepDrop(24e6, 8e6, 10*time.Second, 20*time.Second))
	flows := make([]Config, flowCount)
	for i := range flows {
		flows[i] = Config{
			Duration:    30 * time.Second,
			StartAt:     time.Duration(i) * 100 * time.Millisecond,
			Seed:        int64(i + 1),
			Content:     video.TalkingHead,
			InitialRate: 1e6,
			Controller:  core.NewAdaptive(core.AdaptiveConfig{}),
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res := RunShared(SharedConfig{Trace: tr, Seed: 1}, flows)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(res)
	perFlow := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / flowCount
	t.Logf("%d flows retain %d B, %.0f B per flow", flowCount, after.HeapAlloc-before.HeapAlloc, perFlow)
	if perFlow > sharedRetainedBudgetPerFlow {
		t.Fatalf("a kept shared-run Result retains %.0f B per flow, budget %d", perFlow, sharedRetainedBudgetPerFlow)
	}
}
