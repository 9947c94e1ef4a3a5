package rtp

import (
	"testing"
	"time"

	"rtcadapt/internal/codec"
)

func TestPacketizeAppendReusesSlice(t *testing.T) {
	pz := NewPacketizer(1, 96, 1200)
	var pkts []*Packet
	pkts = pz.PacketizeAppend(pkts[:0], codec.EncodedFrame{Index: 0, Bits: 48000, Type: codec.TypeI})
	if len(pkts) != 5 {
		t.Fatalf("got %d fragments, want 5", len(pkts))
	}
	first := &pkts[0] // address of slot 0 in the backing array
	pkts = pz.PacketizeAppend(pkts[:0], codec.EncodedFrame{Index: 1, Bits: 24000, Type: codec.TypeP})
	if len(pkts) != 3 {
		t.Fatalf("got %d fragments, want 3", len(pkts))
	}
	if &pkts[0] != first {
		t.Fatal("PacketizeAppend reallocated a slice with spare capacity")
	}
	for i, p := range pkts {
		if p.Ext.FrameID != 1 || p.Ext.FragIndex != uint16(i) {
			t.Fatalf("fragment %d has FrameID=%d FragIndex=%d", i, p.Ext.FrameID, p.Ext.FragIndex)
		}
	}
}

func TestPacketizeAppendSkipFrame(t *testing.T) {
	pz := NewPacketizer(1, 96, 1200)
	dst := pz.PacketizeAppend(nil, codec.EncodedFrame{Index: 0, Type: codec.TypeSkip})
	if dst != nil {
		t.Fatalf("skip frame appended %d packets", len(dst))
	}
}

func TestSlabPacketsStayValid(t *testing.T) {
	// Packets handed out before a slab rollover must keep their contents
	// after many more frames are packetized (retransmit history depends
	// on this).
	pz := NewPacketizer(1, 96, 1200)
	held := pz.Packetize(codec.EncodedFrame{Index: 0, Bits: 48000, Type: codec.TypeI})
	wantSeqs := make([]uint16, len(held))
	for i, p := range held {
		wantSeqs[i] = p.Header.SequenceNumber
	}
	for i := 1; i < 200; i++ { // well past several slab rollovers
		pz.Packetize(codec.EncodedFrame{Index: i, Bits: 48000, Type: codec.TypeP})
	}
	for i, p := range held {
		if p.Ext.FrameID != 0 || p.Header.SequenceNumber != wantSeqs[i] {
			t.Fatalf("held packet %d mutated: FrameID=%d seq=%d", i, p.Ext.FrameID, p.Header.SequenceNumber)
		}
	}
}

func TestRetransmitClone(t *testing.T) {
	pz := NewPacketizer(1, 96, 1200)
	orig := pz.Packetize(codec.EncodedFrame{Index: 0, Bits: 12000, Type: codec.TypeI})[0]
	rtx := pz.Retransmit(orig)
	if rtx == orig {
		t.Fatal("Retransmit returned the original packet")
	}
	if rtx.Header.SequenceNumber != orig.Header.SequenceNumber || rtx.Ext.FrameID != orig.Ext.FrameID {
		t.Fatal("Retransmit changed RTP identity")
	}
	if rtx.Ext.TransportSeq == orig.Ext.TransportSeq {
		t.Fatal("Retransmit reused the transport-wide sequence number")
	}
}

func TestReassemblerBitsetHighFragIndex(t *testing.T) {
	// FragIndex is wire-controlled; the bitset must grow to any uint16
	// value without panicking (the fuzzer sends arbitrary indices).
	r := NewReassembler()
	p := &Packet{Ext: Extension{FrameID: 1, FragIndex: 65535, FragCount: 2}, PayloadLen: 10}
	if _, ok := r.Push(p, 0); ok {
		t.Fatal("incomplete frame reported complete")
	}
	if _, ok := r.Push(p, 0); ok {
		t.Fatal("duplicate fragment advanced the frame")
	}
	p2 := &Packet{Ext: Extension{FrameID: 1, FragIndex: 0, FragCount: 2}, PayloadLen: 10}
	cf, ok := r.Push(p2, time.Millisecond)
	if !ok || cf.Packets != 2 || cf.Bytes != 20 {
		t.Fatalf("frame not completed correctly: ok=%v %+v", ok, cf)
	}
}

func TestReassemblerPoolReuseIsClean(t *testing.T) {
	// A recycled tracking record must not leak fragment state from the
	// previous frame: complete a frame with high fragment indices, then
	// reassemble another whose indices overlap.
	r := NewReassembler()
	for id := uint32(1); id <= 3; id++ {
		for i := 0; i < 4; i++ {
			pkt := &Packet{Ext: Extension{FrameID: id, FragIndex: uint16(i), FragCount: 4}, PayloadLen: 100}
			cf, ok := r.Push(pkt, time.Duration(id)*time.Millisecond)
			if i < 3 && ok {
				t.Fatalf("frame %d completed early at fragment %d", id, i)
			}
			if i == 3 {
				if !ok || cf.Packets != 4 || cf.Bytes != 400 {
					t.Fatalf("frame %d wrong: ok=%v %+v", id, ok, cf)
				}
			}
		}
	}
	if r.PendingFrames() != 0 {
		t.Fatalf("%d frames still pending", r.PendingFrames())
	}
}

// TestReassemblerResetZeroAlloc checks that Reset hands the records
// of frames still pending back to the pool: a reassembler reset with n
// frames pending then tracks n new pending frames without allocating.
func TestReassemblerResetZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	const n = 8
	r := NewReassembler()
	id := uint32(0)
	pushPartial := func() {
		for i := 0; i < n; i++ {
			id++
			r.Push(&Packet{Ext: Extension{FrameID: id, FragIndex: 1, FragCount: 3}, PayloadLen: 100}, 0)
		}
		if r.PendingFrames() != n {
			t.Fatalf("%d frames pending, want %d", r.PendingFrames(), n)
		}
		r.Reset()
	}
	pushPartial()
	if allocs := testing.AllocsPerRun(20, pushPartial); allocs != 0 {
		t.Fatalf("reset-and-refill allocated %.1f times per run, want 0", allocs)
	}
}

// TestPacketizeReassembleAllocBudget gates the sender/receiver packet path.
// The only steady-state allocation is the packetizer slab: one []Packet of
// packetizerSlabSize per ~256 fragments, amortizing to well under one
// allocation per round-trip. If a legitimate change needs more, raise the
// budget here with a comment explaining what allocates and why it cannot
// be pooled.
func TestPacketizeReassembleAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	pz := NewPacketizer(1, 96, 1200)
	r := NewReassembler()
	var pkts []*Packet
	frame := 0
	roundTrip := func() {
		f := codec.EncodedFrame{Index: frame, Bits: 48000, Type: codec.TypeP}
		frame++
		pkts = pz.PacketizeAppend(pkts[:0], f)
		for _, p := range pkts {
			r.Push(p, time.Duration(frame)*time.Millisecond)
		}
	}
	// Warm up: grow the append slice, the reassembler pool, and the
	// first slab.
	for i := 0; i < 64; i++ {
		roundTrip()
	}
	// 48000 bits = 6000 B = 5 fragments/frame; the slab amortizes to
	// 5/256 allocations per round-trip.
	const budget = 0.1
	got := testing.AllocsPerRun(500, roundTrip)
	if got > budget {
		t.Fatalf("packetize/reassemble round-trip allocates %.3f/run, budget %v", got, budget)
	}
}

// TestReleasedPacketsAreReused checks the packetizer's free list: released
// packets are handed out again before any slab space, and each is fully
// overwritten, so sentinel values written after Release never leak into a
// later fragment or retransmission.
func TestReleasedPacketsAreReused(t *testing.T) {
	pz, ref := NewPacketizer(1, 96, 1200), NewPacketizer(1, 96, 1200)
	f0 := codec.EncodedFrame{Index: 0, Bits: 48000, Type: codec.TypeI}
	held := pz.Packetize(f0)
	ref.Packetize(f0)
	reused := map[*Packet]bool{}
	for _, p := range held {
		*p = Packet{Header: Header{SequenceNumber: 0xdead, SSRC: 0xdeadbeef}, Ext: Extension{FrameID: 0xdead, FragCount: 0xdead}, PayloadLen: -1}
		pz.Release(p)
		reused[p] = true
	}
	f1 := codec.EncodedFrame{Index: 1, Bits: 24000, Type: codec.TypeP}
	got, want := pz.Packetize(f1), ref.Packetize(f1)
	for i := range got {
		if !reused[got[i]] {
			t.Errorf("fragment %d came from the slab while released packets were free", i)
		}
		if *got[i] != *want[i] {
			t.Errorf("fragment %d = %+v, want %+v", i, *got[i], *want[i])
		}
	}
	pz.Release(got[0])
	if rtx, wantRtx := pz.Retransmit(got[1]), ref.Retransmit(want[1]); rtx != got[0] || *rtx != *wantRtx {
		t.Errorf("retransmission %+v (reused %v), want %+v", *rtx, rtx == got[0], *wantRtx)
	}
}
