package rtp

import (
	"math/rand"
	"testing"
)

// mapRtxBuffer is the map-indexed RtxBuffer the open-addressed index
// replaced, kept as the reference model: FIFO eviction over an insertion
// ring, a map from sequence number to packet, and in-place replacement of
// a sequence number already stored.
type mapRtxBuffer struct {
	cap   int
	bySeq map[uint16]*Packet
	order []uint16
	head  int
}

func (b *mapRtxBuffer) Store(pkt *Packet) {
	if _, exists := b.bySeq[pkt.SequenceNumber]; exists {
		b.bySeq[pkt.SequenceNumber] = pkt
		return
	}
	if len(b.order) < b.cap {
		b.order = append(b.order, pkt.SequenceNumber)
	} else {
		delete(b.bySeq, b.order[b.head])
		b.order[b.head] = pkt.SequenceNumber
		b.head = (b.head + 1) % b.cap
	}
	b.bySeq[pkt.SequenceNumber] = pkt
}

func (b *mapRtxBuffer) Get(seq uint16) (*Packet, bool) {
	p, ok := b.bySeq[seq]
	return p, ok
}

// TestRtxBufferMatchesMapModel drives the buffer and the reference model
// with the same seeded streams of stores and lookups and requires
// identical Get and Len answers after every operation. The streams mix
// consecutive sends with the sender's real irregularities: gaps (pacer
// drops), re-stores of a recent sequence (retransmissions), the 2^16
// wrap, and random sequence numbers that collide in the index.
func TestRtxBufferMatchesMapModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7, 64, 512} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got := NewRtxBuffer(capacity)
			want := &mapRtxBuffer{cap: capacity, bySeq: make(map[uint16]*Packet)}
			next := uint16(rng.Intn(1 << 16))
			for op := 0; op < 20_000; op++ {
				var seq uint16
				switch r := rng.Intn(100); {
				case r < 70:
					seq = next // consecutive send
					next++
				case r < 80:
					next += uint16(rng.Intn(8)) // gap
					seq = next
					next++
				case r < 90:
					seq = next - 1 - uint16(rng.Intn(2*capacity+1)) // re-store
				default:
					seq = uint16(rng.Intn(1 << 16))
				}
				pkt := &Packet{Header: Header{SequenceNumber: seq}, PayloadLen: op}
				got.Store(pkt)
				want.Store(pkt)
				if got.Len() != len(want.bySeq) {
					t.Fatalf("cap %d seed %d op %d: Len %d, model %d", capacity, seed, op, got.Len(), len(want.bySeq))
				}
				for probe := 0; probe < 4; probe++ {
					q := next - uint16(rng.Intn(2*capacity+8))
					if probe == 3 {
						q = uint16(rng.Intn(1 << 16))
					}
					gp, gok := got.Get(q)
					wp, wok := want.Get(q)
					if gp != wp || gok != wok {
						t.Fatalf("cap %d seed %d op %d: Get(%d) = %v,%v, model %v,%v", capacity, seed, op, q, gp, gok, wp, wok)
					}
				}
			}
			for seq := range want.bySeq {
				if gp, _ := got.Get(seq); gp != want.bySeq[seq] {
					t.Fatalf("cap %d seed %d: stored %d differs at the end", capacity, seed, seq)
				}
			}
		}
	}
}

// TestRtxBufferStoreZeroAlloc pins that the buffer allocates only in
// NewRtxBuffer: storing through many evictions allocates nothing.
func TestRtxBufferStoreZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	b := NewRtxBuffer(0)
	pkts := make([]Packet, 64)
	seq := uint16(0)
	got := testing.AllocsPerRun(200, func() {
		for i := range pkts {
			pkts[i].SequenceNumber = seq
			b.Store(&pkts[i])
			seq++
		}
	})
	if got != 0 {
		t.Fatalf("Store allocates %.2f per 64 packets, want 0", got)
	}
}
