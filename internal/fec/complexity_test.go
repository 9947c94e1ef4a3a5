package fec

import (
	"math"
	"testing"
	"time"

	"rtcadapt/internal/rtp"
)

// TestDecoderOnMediaCostIndependentOfCapacity times OnMedia on a decoder
// whose ring holds 64 done groups against one holding 4096, both in one
// process. Media packets look only at the groups still open, so the cost
// per packet must not grow with the number of groups the decoder keeps; a
// scan of every live group costs about 64× more at the larger bound.
func TestDecoderOnMediaCostIndependentOfCapacity(t *testing.T) {
	if raceEnabled {
		t.Skip("timing is perturbed under -race")
	}
	const (
		rounds   = 5
		chunks   = 16
		ops      = 1 << 14
		maxRatio = 2.0
	)
	capacities := [2]int{64, 4096}
	best := [2]float64{math.Inf(1), math.Inf(1)}
	var out []*rtp.Packet
	for round := 0; round < rounds; round++ {
		var decs [2]*Decoder
		var next [2]uint16
		for k, c := range capacities {
			decs[k] = NewDecoder()
			decs[k].MaxGroups = c
			e := NewGroupEncoder(1, 4)
			// Every group complete before its repair: all done.
			for ; int(next[k]) < 4*c; next[k]++ {
				decs[k].OnMedia(nil, next[k])
				if rep := e.Add(mkPkt(next[k], 500)); rep != nil {
					decs[k].OnRepair(nil, rep)
					e.Release(rep)
				}
			}
			if decs[k].n != c || len(decs[k].open) != 0 {
				t.Fatalf("capacity %d: %d live groups, %d open", c, decs[k].n, len(decs[k].open))
			}
		}
		// Alternate short chunks between the two decoders so both see the
		// same host; the fastest chunk is one the process ran unpreempted.
		for chunk := 0; chunk < chunks; chunk++ {
			for k, d := range decs {
				start := time.Now()
				for i := 0; i < ops/chunks; i++ {
					out = d.OnMedia(out[:0], next[k])
					next[k]++
				}
				best[k] = min(best[k], float64(time.Since(start).Nanoseconds())/float64(ops/chunks))
			}
		}
	}
	ratio := best[1] / best[0]
	t.Logf("%d groups: %.1f ns/OnMedia, %d groups: %.1f ns/OnMedia, ratio %.2f",
		capacities[0], best[0], capacities[1], best[1], ratio)
	if ratio > maxRatio {
		t.Fatalf("OnMedia cost grows %.2f× from %d to %d groups (max %.1f×): it scans done groups",
			ratio, capacities[0], capacities[1], maxRatio)
	}
}
