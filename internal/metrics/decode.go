package metrics

import "time"

// EnforceDecodeOrder applies H.264 P-chain semantics to a ledger of frame
// records in capture order: a predicted frame is decodable only if every
// non-droppable frame since the last keyframe arrived. A frame whose chain
// is broken becomes a Dropped freeze even if its own packets arrived; a
// frame whose missing ancestor was repaired late (NACK) decodes as soon as
// the gap fills, shifting its display time; SVC enhancement frames
// (TemporalLayer > 0) are referenced by nothing, so their loss stays
// local. An arriving keyframe always restores the chain — that is how PLI
// recovery works.
//
// latenessBudget bounds how stale a frame may decode and still display
// (non-positive disables). Records are mutated in place.
func EnforceDecodeOrder(records []FrameRecord, latenessBudget time.Duration) {
	chainBroken := false
	chainReadyAt := time.Duration(0)
	lastDisplay := time.Duration(0)
	display := func(rec *FrameRecord, decodeAt time.Duration) {
		if latenessBudget > 0 && decodeAt-rec.CaptureTS > latenessBudget {
			// Decodable, but too stale to render.
			rec.Outcome = Dropped
			return
		}
		at := decodeAt
		if rec.DisplayAt > at {
			at = rec.DisplayAt
		}
		if at <= lastDisplay {
			at = lastDisplay + time.Millisecond // monotone display
		}
		rec.DisplayAt = at
		lastDisplay = at
	}
	for i := range records {
		rec := &records[i]
		if rec.Outcome == Skipped {
			// Nothing was sent; the decoder repeats the previous
			// frame. The chain state is unchanged.
			continue
		}
		arrived := rec.Arrival > 0
		if !arrived {
			if rec.TemporalLayer > 0 {
				// Nothing references an enhancement frame: only its
				// own slot freezes.
				continue
			}
			// Never completed at the receiver: successors lose their
			// reference until the next keyframe.
			chainBroken = true
			continue
		}
		if rec.Keyframe {
			chainBroken = false
			chainReadyAt = rec.Arrival
			if rec.Outcome == Delivered {
				display(rec, rec.Arrival)
			}
			continue
		}
		if chainBroken {
			// Arrived but undecodable: reference missing.
			if rec.Outcome == Delivered {
				rec.Outcome = Dropped
			}
			continue
		}
		decodeAt := rec.Arrival
		if chainReadyAt > decodeAt {
			decodeAt = chainReadyAt
		}
		if rec.TemporalLayer == 0 {
			// Only base-layer frames gate later frames' decode.
			chainReadyAt = decodeAt
		}
		if rec.Outcome != Delivered {
			continue
		}
		display(rec, decodeAt)
	}
}
