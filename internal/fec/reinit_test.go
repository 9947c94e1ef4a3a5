package fec

import (
	"math/rand"
	"slices"
	"testing"

	"rtcadapt/internal/rtp"
)

// TestGroupEncoderInitMatchesFresh leaves an encoder mid-group with
// repairs released and others still out, poisons every repair in its
// slabs, re-initialises it with another SSRC and group size, and requires
// the repairs of a new stream to equal a fresh encoder's.
func TestGroupEncoderInitMatchesFresh(t *testing.T) {
	used := NewGroupEncoder(1, 3)
	for seq := uint16(0); seq < 500; seq++ {
		if rep := used.Add(mkPkt(seq, 300+int(seq))); rep != nil && seq%7 == 0 {
			used.Release(rep)
		}
	}
	used.Add(mkPkt(500, 100)) // a partial group pending
	for _, slab := range used.slabs {
		for i := range slab {
			poisonRepair(&slab[i])
		}
	}
	used.Init(9, 5)
	fresh := NewGroupEncoder(9, 5)
	if used.K != fresh.K || used.Overhead() != fresh.Overhead() {
		t.Fatalf("re-initialised K %d, fresh %d", used.K, fresh.K)
	}
	if used.Flush() != nil {
		t.Fatal("re-initialised encoder kept the pending group")
	}
	rng := rand.New(rand.NewSource(5))
	for seq := uint16(65000); seq != 2000; seq++ {
		pkt := mkPkt(seq, 100+rng.Intn(1100))
		got, want := used.Add(pkt), fresh.Add(pkt)
		if rng.Intn(9) == 0 {
			got, want = used.Flush(), fresh.Flush()
		}
		if (got == nil) != (want == nil) {
			t.Fatalf("seq %d: re-initialised repair %v, fresh %v", seq, got, want)
		}
		if got == nil {
			continue
		}
		if got.RepairID != want.RepairID || got.SSRC != want.SSRC || got.TransportSeq != want.TransportSeq ||
			got.WireBytes != want.WireBytes || !slices.Equal(got.Protected, want.Protected) {
			t.Fatalf("seq %d: re-initialised repair\n%+v\nfresh\n%+v", seq, *got, *want)
		}
		used.Release(got)
	}
}

// TestDecoderResetMatchesFresh leaves a decoder with live groups, a full
// received window, recoveries counted and another group bound, poisons
// its group storage, resets it, and requires a new stream's recoveries to
// equal a fresh decoder's.
func TestDecoderResetMatchesFresh(t *testing.T) {
	enc := NewGroupEncoder(1, 4)
	used := NewDecoder()
	used.MaxGroups = 100
	for seq := uint16(0); seq < 6000; seq++ {
		rep := enc.Add(mkPkt(seq, 500))
		if seq%5 != 0 {
			used.OnMedia(nil, seq)
		}
		if rep != nil {
			used.OnRepair(nil, rep)
		}
	}
	if used.Recovered() == 0 || used.n == 0 {
		t.Fatal("the used decoder recovered nothing")
	}
	for i := range used.groups {
		g := &used.groups[i]
		g.id, g.first, g.contiguous, g.done = 0xdeadbeef, 0xdead, true, true
		for j := range g.protected[:cap(g.protected)] {
			g.protected[:cap(g.protected)][j] = rtp.Packet{Header: rtp.Header{SequenceNumber: 0xdead}, PayloadLen: -1}
		}
	}
	used.Reset()
	fresh := NewDecoder()
	if used.MaxGroups != fresh.MaxGroups || used.Recovered() != 0 {
		t.Fatalf("reset decoder: MaxGroups %d, Recovered %d", used.MaxGroups, used.Recovered())
	}
	enc.Init(1, 3)
	rng := rand.New(rand.NewSource(6))
	var got, want []*rtp.Packet
	check := func(seq uint16) {
		if len(got) != len(want) {
			t.Fatalf("seq %d: reset decoder recovered %d, fresh %d", seq, len(got), len(want))
		}
		for i := range got {
			if *got[i] != *want[i] {
				t.Fatalf("seq %d: reset decoder recovered %+v, fresh %+v", seq, *got[i], *want[i])
			}
		}
	}
	for seq := uint16(0); seq < 8000; seq++ {
		if rng.Intn(6) != 0 {
			got, want = used.OnMedia(got[:0], seq), fresh.OnMedia(want[:0], seq)
			check(seq)
		}
		if rep := enc.Add(mkPkt(seq, 700)); rep != nil && rng.Intn(8) != 0 {
			got, want = used.OnRepair(got[:0], rep), fresh.OnRepair(want[:0], rep)
			check(seq)
			enc.Release(rep)
		}
	}
	if used.Recovered() != fresh.Recovered() || used.Recovered() == 0 {
		t.Fatalf("reset decoder recovered %d, fresh %d", used.Recovered(), fresh.Recovered())
	}
}

// TestGroupEncoderZeroAlloc pins the encoder's steady state: groups
// filled, flushed at frame ends and released after delivery allocate
// nothing once the slabs and Protected buffers have grown.
func TestGroupEncoderZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	e := NewGroupEncoder(1, 4)
	pkt := mkPkt(0, 1000)
	var out []*Repair
	frame := func() {
		for i := 0; i < 7; i++ {
			pkt.SequenceNumber++
			if rep := e.Add(pkt); rep != nil {
				out = append(out, rep)
			}
		}
		if rep := e.Flush(); rep != nil {
			out = append(out, rep)
		}
		for _, rep := range out {
			e.Release(rep)
		}
		out = out[:0]
	}
	for i := 0; i < 100; i++ {
		frame()
	}
	if got := testing.AllocsPerRun(10000, frame); got != 0 {
		t.Fatalf("steady-state encoder frame allocates %.4f per call, want 0", got)
	}
}

// TestDecoderZeroAlloc pins the decoder's steady state: media with one
// loss per group, repairs recovering it, groups evicted past the bound
// and the received window sliding, all into a recycled output slice,
// allocate nothing once the ring has grown.
func TestDecoderZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	e := NewGroupEncoder(1, 4)
	d := NewDecoder()
	seq := uint16(0)
	var rec []*rtp.Packet
	recovered := 0
	group := func() {
		for i := 0; i < 4; i++ {
			rep := e.Add(mkPkt(seq, 1000))
			if i != int(seq/4)%4 {
				rec = d.OnMedia(rec[:0], seq)
			}
			seq++
			if rep != nil {
				rec = d.OnRepair(rec[:0], rep)
				recovered += len(rec)
				e.Release(rep)
			}
		}
	}
	for i := 0; i < 2000; i++ {
		group()
	}
	if got := testing.AllocsPerRun(20000, group); got != 0 {
		t.Fatalf("steady-state decoder group allocates %.4f per call, want 0", got)
	}
	if recovered == 0 {
		t.Fatal("the decoder recovered nothing")
	}
}
