package rtp

import (
	"math"
	"testing"
	"time"
)

// TestRtxBufferStoreCostIndependentOfCapacity gates Store on a full
// buffer of 4096 packets against one of 64, both measured in this
// process, so the bound holds on any host. Each Store of the next
// consecutive sequence number evicts the oldest packet; an index whose
// deletion walks a probe run as long as the buffer shows up at the
// capacity ratio (64×).
func TestRtxBufferStoreCostIndependentOfCapacity(t *testing.T) {
	if raceEnabled {
		t.Skip("timing is perturbed under -race")
	}
	const (
		rounds   = 5
		chunks   = 16
		ops      = 1 << 16
		maxRatio = 2.0
	)
	capacities := [2]int{64, 4096}
	best := [2]float64{math.Inf(1), math.Inf(1)}
	for round := 0; round < rounds; round++ {
		var bufs [2]*RtxBuffer
		var next [2]uint16
		pkt := &Packet{}
		for k, c := range capacities {
			bufs[k] = NewRtxBuffer(c)
			for ; int(next[k]) < 2*c; next[k]++ {
				pkt.SequenceNumber = next[k]
				bufs[k].Store(pkt)
			}
		}
		// Alternate short chunks between the two buffers so both see the
		// same host; the fastest chunk is one the process ran unpreempted.
		for chunk := 0; chunk < chunks; chunk++ {
			for k, b := range bufs {
				start := time.Now()
				for i := 0; i < ops/chunks; i++ {
					pkt.SequenceNumber = next[k]
					b.Store(pkt)
					next[k]++
				}
				best[k] = min(best[k], float64(time.Since(start).Nanoseconds())/float64(ops/chunks))
			}
		}
	}
	ratio := best[1] / best[0]
	t.Logf("capacity %d: %.1f ns/Store, capacity %d: %.1f ns/Store, ratio %.2f",
		capacities[0], best[0], capacities[1], best[1], ratio)
	if ratio > maxRatio {
		t.Fatalf("Store cost grows %.2f× from capacity %d to %d (max %.1f×): eviction is not O(1)",
			ratio, capacities[0], capacities[1], maxRatio)
	}
}
