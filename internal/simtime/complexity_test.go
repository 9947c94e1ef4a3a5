package simtime

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// Complexity gates: each compares the per-operation cost at a large queue
// depth against a small one, both measured in this process, so the bound
// holds on any host. The wheel is O(1) per operation, so the two costs
// stay within cache effects of each other; an O(n) walk of the pending
// events shows up at the depth ratio (16× for Step).
const (
	complexityRounds   = 5
	complexityChunks   = 16
	complexityMaxRatio = 2.0
)

// bestPerOp runs ops operations at each depth in each of complexityRounds
// rounds and returns the fastest per-operation time seen at each depth, in
// nanoseconds. A round builds a fresh queue of each depth with setup,
// which returns a function that performs n operations on it, then
// alternates between the two queues in complexityChunks chunks of
// ops/complexityChunks operations, timing each chunk. Short interleaved
// chunks let both depths see the same host: on a loaded machine the
// fastest chunk is one the process ran without being preempted.
func bestPerOp(t *testing.T, ops int, depths [2]int, setup func(depth int) func(n int)) [2]float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("timing is perturbed under -race")
	}
	n := ops / complexityChunks
	best := [2]float64{math.Inf(1), math.Inf(1)}
	for round := 0; round < complexityRounds; round++ {
		runs := [2]func(int){setup(depths[0]), setup(depths[1])}
		for chunk := 0; chunk < complexityChunks; chunk++ {
			for k, run := range runs {
				start := time.Now()
				run(n)
				best[k] = min(best[k], float64(time.Since(start).Nanoseconds())/float64(n))
			}
		}
	}
	return best
}

// checkRatio fails the test when the deep queue's per-operation cost
// exceeds complexityMaxRatio times the shallow one's.
func checkRatio(t *testing.T, depths [2]int, best [2]float64) {
	t.Helper()
	checkCost(t, [2]string{fmt.Sprintf("%d pending", depths[0]), fmt.Sprintf("%d pending", depths[1])}, best)
}

// checkCost fails the test when the second queue's per-operation cost
// exceeds complexityMaxRatio times the first one's.
func checkCost(t *testing.T, names [2]string, best [2]float64) {
	t.Helper()
	ratio := best[1] / best[0]
	t.Logf("%s: %.1f ns/op, %s: %.1f ns/op, ratio %.2f", names[0], best[0], names[1], best[1], ratio)
	if ratio > complexityMaxRatio {
		t.Fatalf("per-operation cost grows %.2f× from %s to %s (max %.1f×): not O(1)",
			ratio, names[0], names[1], complexityMaxRatio)
	}
}

// TestStepCostIndependentOfDepth gates Step with 16k standing
// mixed-horizon timers against Step with 1k. 64k steps take ~5 ms on the
// wheel; a linear scan of the 16k pending events takes seconds.
func TestStepCostIndependentOfDepth(t *testing.T) {
	depths := [2]int{1 << 10, 1 << 14}
	checkRatio(t, depths, bestPerOp(t, 1<<16, depths, func(depth int) func(int) {
		s := newMixedHorizon(depth)
		return func(ops int) {
			for i := 0; i < ops; i++ {
				s.Step()
			}
		}
	}))
}

// TestCancelReplaceCostIndependentOfDepth gates cancel-and-replace with
// 4k pending events against the same with 256.
func TestCancelReplaceCostIndependentOfDepth(t *testing.T) {
	depths := [2]int{1 << 8, 1 << 12}
	checkRatio(t, depths, bestPerOp(t, 1<<18, depths, func(depth int) func(int) {
		r := newCancelRing(depth)
		return func(ops int) {
			for i := 0; i < ops; i++ {
				r.replace(i)
			}
		}
	}))
}

// swingQueue returns an operation loop on a fresh scheduler whose depth
// swings between lo and hi pending events: it pushes up to hi, then
// Steps down to lo, and again. One push or one Step is one operation.
// Deadlines follow BenchmarkSchedulerChurn: 0–99 µs ahead, cycling.
func swingQueue(lo, hi int) func(int) {
	s := NewScheduler()
	k := 0
	push := func() {
		s.AfterArg(time.Duration(k%100)*time.Microsecond, cancelBenchNoop, nil)
		k++
	}
	for s.Len() < lo {
		push()
	}
	rising := true
	return func(ops int) {
		for i := 0; i < ops; i++ {
			if rising {
				push()
				rising = s.Len() < hi
			} else {
				s.Step()
				rising = s.Len() <= lo
			}
		}
	}
}

// TestModeSwitchCostIndependentOfDepth gates the cost of moving between
// the shallow-queue array and the wheel. Each swinging queue is timed
// against a queue held at 64 pending, which never leaves the wheel:
//   - 0 ↔ 64 is BenchmarkSchedulerChurn's cycle;
//   - nearMax-2 ↔ nearMax+2 crosses the spill point on every swing.
//
// A spilled queue stays in the wheel until Reset, so both pay one spill
// and then run at the wheel's cost; a queue that folded back on every
// drop below nearMax would switch twice per swing of eight operations.
func TestModeSwitchCostIndependentOfDepth(t *testing.T) {
	for _, sw := range [][2]int{{0, 64}, {nearMax - 2, nearMax + 2}} {
		t.Run(fmt.Sprintf("swing%d-%d", sw[0], sw[1]), func(t *testing.T) {
			names := [2]string{"held at 64", fmt.Sprintf("swinging %d↔%d", sw[0], sw[1])}
			checkCost(t, names, bestPerOp(t, 1<<16, [2]int{0, 1}, func(k int) func(int) {
				if k == 0 {
					return swingQueue(64, 65)
				}
				return swingQueue(sw[0], sw[1])
			}))
		})
	}
}
