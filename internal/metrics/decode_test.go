package metrics

import (
	"testing"
	"time"
)

// mkRecords builds a ledger from a compact spec string where each rune is
// one frame: 'I' arrived keyframe, 'P' arrived P-frame, 'X' never-arrived
// frame, 'S' skipped frame, 'L' P-frame arriving late (arrival += lateBy),
// 'e' arrived droppable enhancement (TL1) frame, 'x' never-arrived TL1.
func mkRecords(spec string, lateBy time.Duration) []FrameRecord {
	var recs []FrameRecord
	for i, ch := range spec {
		cap := time.Duration(i) * 33 * time.Millisecond
		rec := FrameRecord{Index: int32(i), CaptureTS: cap}
		switch ch {
		case 'I', 'P', 'L', 'e':
			rec.Arrival = cap + 50*time.Millisecond
			if ch == 'L' {
				rec.Arrival += lateBy
			}
			rec.DisplayAt = rec.Arrival
			rec.Outcome = Delivered
			rec.Keyframe = ch == 'I'
			if ch == 'e' {
				rec.TemporalLayer = 1
			}
		case 'X':
			rec.Outcome = Dropped
		case 'x':
			rec.Outcome = Dropped
			rec.TemporalLayer = 1
		case 'S':
			rec.Outcome = Skipped
		}
		recs = append(recs, rec)
	}
	return recs
}

func outcomes(recs []FrameRecord) string {
	s := ""
	for _, r := range recs {
		switch r.Outcome {
		case Delivered:
			s += "D"
		case Skipped:
			s += "S"
		case Dropped:
			s += "x"
		}
	}
	return s
}

func TestDecodeIntactChain(t *testing.T) {
	recs := mkRecords("IPPPP", 0)
	EnforceDecodeOrder(recs, time.Second)
	if got := outcomes(recs); got != "DDDDD" {
		t.Errorf("outcomes = %s, want DDDDD", got)
	}
}

func TestDecodeBrokenChainUntilKeyframe(t *testing.T) {
	recs := mkRecords("IPXPPIP", 0)
	EnforceDecodeOrder(recs, time.Second)
	// Frames 3,4 arrived but reference frame 2 never did; keyframe at 5
	// restores the chain.
	if got := outcomes(recs); got != "DDxxxDD" {
		t.Errorf("outcomes = %s, want DDxxxDD", got)
	}
}

func TestDecodeSkipDoesNotBreakChain(t *testing.T) {
	recs := mkRecords("IPSPP", 0)
	EnforceDecodeOrder(recs, time.Second)
	if got := outcomes(recs); got != "DDSDD" {
		t.Errorf("outcomes = %s, want DDSDD", got)
	}
}

func TestDecodeLateRepairShiftsSuccessors(t *testing.T) {
	// Frame 2 arrives 200 ms late (NACK repair); frames 3,4 arrived on
	// time but must wait for frame 2 to decode.
	recs := mkRecords("IPLPP", 200*time.Millisecond)
	EnforceDecodeOrder(recs, time.Second)
	if got := outcomes(recs); got != "DDDDD" {
		t.Fatalf("outcomes = %s, want all delivered", got)
	}
	if recs[3].DisplayAt < recs[2].Arrival {
		t.Errorf("frame 3 displayed at %v before its reference decoded at %v",
			recs[3].DisplayAt, recs[2].Arrival)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].DisplayAt <= recs[i-1].DisplayAt {
			t.Errorf("display not monotone at %d", i)
		}
	}
}

func TestDecodeLatenessBudgetDropsStale(t *testing.T) {
	recs := mkRecords("IPLPPPPPPPPPPPPPPPPPPPPPPPPPPPPP", 800*time.Millisecond)
	EnforceDecodeOrder(recs, 600*time.Millisecond)
	if recs[2].Outcome != Dropped {
		t.Error("stale repaired frame was displayed")
	}
	if last := recs[len(recs)-1]; last.Outcome != Delivered {
		t.Errorf("tail frame outcome %v; chain should recover", last.Outcome)
	}
}

func TestDecodeZeroBudgetDisablesStaleness(t *testing.T) {
	recs := mkRecords("IPL", 5*time.Second)
	EnforceDecodeOrder(recs, 0)
	if recs[2].Outcome != Delivered {
		t.Error("budget 0 should disable staleness dropping")
	}
}

func TestDecodeKeyframeWhileBroken(t *testing.T) {
	recs := mkRecords("IXPI", 0)
	EnforceDecodeOrder(recs, time.Second)
	if got := outcomes(recs); got != "DxxD" {
		t.Errorf("outcomes = %s, want DxxD", got)
	}
}

func TestDecodeDroppableLayerLossIsLocal(t *testing.T) {
	// I, TL1(lost), TL0, TL1, TL0: only the lost TL1 slot freezes.
	recs := mkRecords("IxPeP", 0)
	EnforceDecodeOrder(recs, time.Second)
	if got := outcomes(recs); got != "DxDDD" {
		t.Errorf("outcomes = %s, want DxDDD", got)
	}
}

func TestDecodeBaseLayerLossStillBreaksChain(t *testing.T) {
	// I, TL1, TL0(lost), TL1, TL0: chain breaks at the TL0 loss.
	recs := mkRecords("IeXeP", 0)
	EnforceDecodeOrder(recs, time.Second)
	if got := outcomes(recs); got != "DDxxx" {
		t.Errorf("outcomes = %s, want DDxxx", got)
	}
}

func TestDecodeEnhancementDoesNotGateBase(t *testing.T) {
	// A late TL1 frame must not gate the *decode* of following TL0
	// frames: the successor displays right after it (presentation order),
	// not an arrival-chain delay later.
	recs := mkRecords("IPeP", 0)
	recs[2].Arrival += 300 * time.Millisecond // TL1 arrives very late
	EnforceDecodeOrder(recs, time.Second)
	if recs[3].Outcome != Delivered {
		t.Fatalf("successor outcome %v", recs[3].Outcome)
	}
	// Only the millisecond-scale monotone presentation push is allowed.
	if gap := recs[3].DisplayAt - recs[2].DisplayAt; gap > 5*time.Millisecond {
		t.Errorf("TL0 frame decode gated by late TL1: display gap %v", gap)
	}
	// Contrast: were the late frame base-layer, the chain WOULD gate the
	// successor's decode to at/after the late arrival.
	recs2 := mkRecords("IPLP", 300*time.Millisecond)
	EnforceDecodeOrder(recs2, time.Second)
	if recs2[3].DisplayAt < recs2[2].Arrival {
		t.Error("base-layer late arrival did not gate the successor")
	}
}
