package rtp

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSeqLess(t *testing.T) {
	cases := []struct {
		a, b uint16
		want bool
	}{
		{1, 2, true},
		{2, 1, false},
		{5, 5, false},
		{65535, 0, true},  // wrap
		{0, 65535, false}, // wrap
		{65000, 100, true},
		{100, 65000, false},
	}
	for _, c := range cases {
		if got := SeqLess(c.a, c.b); got != c.want {
			t.Errorf("SeqLess(%d, %d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestNackGapDetection(t *testing.T) {
	g := NewNackGenerator()
	g.OnPacket(10)
	g.OnPacket(11)
	g.OnPacket(14) // 12, 13 missing
	if g.Missing() != 2 {
		t.Fatalf("missing = %d, want 2", g.Missing())
	}
	nacks := g.Collect(100 * time.Millisecond)
	if len(nacks) != 2 || nacks[0] != 12 || nacks[1] != 13 {
		t.Errorf("nacks = %v, want [12 13]", nacks)
	}
}

func TestNackRecovery(t *testing.T) {
	g := NewNackGenerator()
	g.OnPacket(0)
	g.OnPacket(3)
	g.Collect(50 * time.Millisecond)
	g.OnPacket(1) // retransmission arrives
	if g.Missing() != 1 || g.Recovered() != 1 {
		t.Errorf("missing=%d recovered=%d", g.Missing(), g.Recovered())
	}
}

func TestNackRetryPacing(t *testing.T) {
	g := NewNackGenerator()
	g.OnPacket(0)
	g.OnPacket(2)
	first := g.Collect(100 * time.Millisecond)
	if len(first) != 1 {
		t.Fatalf("first collect = %v", first)
	}
	// Too soon: no re-request.
	if again := g.Collect(120 * time.Millisecond); len(again) != 0 {
		t.Errorf("re-requested before RetryInterval: %v", again)
	}
	// After the interval: re-request.
	if again := g.Collect(160 * time.Millisecond); len(again) != 1 {
		t.Errorf("no re-request after RetryInterval: %v", again)
	}
}

func TestNackMaxRetriesAbandons(t *testing.T) {
	g := NewNackGenerator()
	g.OnPacket(0)
	g.OnPacket(2)
	now := time.Duration(0)
	for i := 0; i < 3; i++ {
		now += 100 * time.Millisecond
		if got := g.Collect(now); len(got) != 1 {
			t.Fatalf("retry %d: %v", i, got)
		}
	}
	now += 100 * time.Millisecond
	if got := g.Collect(now); len(got) != 0 {
		t.Fatalf("collected beyond MaxRetries: %v", got)
	}
	// One more Collect sweeps the exhausted entry.
	g.Collect(now + 100*time.Millisecond)
	if g.Missing() != 0 || g.Abandoned() != 1 {
		t.Errorf("missing=%d abandoned=%d", g.Missing(), g.Abandoned())
	}
}

func TestNackWraparound(t *testing.T) {
	g := NewNackGenerator()
	g.OnPacket(65534)
	g.OnPacket(1) // 65535 and 0 missing across the wrap
	if g.Missing() != 2 {
		t.Fatalf("missing = %d, want 2 across wrap", g.Missing())
	}
	nacks := g.Collect(time.Second)
	if len(nacks) != 2 || nacks[0] != 65535 || nacks[1] != 0 {
		t.Errorf("nacks = %v, want [65535 0]", nacks)
	}
}

func TestNackBoundedTracking(t *testing.T) {
	g := NewNackGenerator()
	g.MaxTracked = 10
	g.OnPacket(0)
	g.OnPacket(1000) // giant gap
	if g.Missing() > 10 {
		t.Errorf("missing = %d exceeds MaxTracked", g.Missing())
	}
	if g.Abandoned() == 0 {
		t.Error("no entries abandoned despite overflow")
	}
}

func TestNackOldDuplicateIgnored(t *testing.T) {
	g := NewNackGenerator()
	g.OnPacket(5)
	g.OnPacket(6)
	g.OnPacket(5) // duplicate of already-received
	if g.Missing() != 0 {
		t.Errorf("duplicate created missing entries: %d", g.Missing())
	}
}

// Property: after delivering 0..n with arbitrary drops and then
// retransmitting everything collected, the missing set is empty.
func TestNackConservationProperty(t *testing.T) {
	f := func(drop []bool) bool {
		if len(drop) == 0 || len(drop) > 100 {
			return true
		}
		g := NewNackGenerator()
		g.OnPacket(0)
		for i, d := range drop {
			if !d {
				g.OnPacket(uint16(i + 1))
			}
		}
		// Ensure the tail gap is registered.
		g.OnPacket(uint16(len(drop) + 1))
		for _, s := range g.Collect(time.Second) {
			g.OnPacket(s)
		}
		return g.Missing() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestNackWrapStraddlingCollectOrder pins the ISSUE-7 edge: highest=5
// with missing={65530..65535, 0..4} straddling the 2^16 wrap must
// collect oldest-first in wrap order, with the pre-wrap sequences ahead
// of the post-wrap ones.
func TestNackWrapStraddlingCollectOrder(t *testing.T) {
	g := NewNackGenerator()
	g.OnPacket(65529)
	g.OnPacket(5) // 65530..65535 and 0..4 missing across the wrap
	if g.Missing() != 11 {
		t.Fatalf("missing = %d, want 11 across wrap", g.Missing())
	}
	nacks := g.Collect(time.Second)
	want := []uint16{65530, 65531, 65532, 65533, 65534, 65535, 0, 1, 2, 3, 4}
	if len(nacks) != len(want) {
		t.Fatalf("nacks = %v, want %v", nacks, want)
	}
	for i := range want {
		if nacks[i] != want[i] {
			t.Fatalf("nacks = %v, want %v", nacks, want)
		}
	}
}

// wideSpanGenerator builds a missing set {1, 2, 40001, 40002} whose span
// (40001) exceeds 2^15 — the regime where a SeqLess-based comparison
// goes non-transitive: SeqLess(1, 40001) is false even though 1 is the
// older loss. Entries 1 and 2 linger while every other sequence up to
// 40000 arrives, then a fresh gap opens at the top.
func wideSpanGenerator(maxTracked int) *NackGenerator {
	g := NewNackGenerator()
	g.MaxTracked = maxTracked
	g.OnPacket(0)
	for s := 3; s <= 40000; s++ {
		g.OnPacket(uint16(s))
	}
	g.OnPacket(40003)
	return g
}

// TestNackCollectOrderBeyondHalfSpan pins Collect's total order when the
// missing set spans more than half the sequence space.
func TestNackCollectOrderBeyondHalfSpan(t *testing.T) {
	g := wideSpanGenerator(256)
	if g.Missing() != 4 {
		t.Fatalf("missing = %d, want 4", g.Missing())
	}
	nacks := g.Collect(time.Second)
	want := []uint16{1, 2, 40001, 40002}
	if len(nacks) != len(want) {
		t.Fatalf("nacks = %v, want %v", nacks, want)
	}
	for i := range want {
		if nacks[i] != want[i] {
			t.Fatalf("nacks = %v, want %v (stale losses must precede fresh ones)", nacks, want)
		}
	}
}

// TestNackAbandonOldestBeyondHalfSpan pins abandonment under the same
// wide-span regime: when the tracked set overflows, the entries given up
// must be the stale stragglers, never the losses just registered. (Two
// historical bugs meet here: the SeqLess comparison inverting beyond
// 2^15, and abandonOldest running against the pre-gap highest, which
// made every just-inserted sequence look maximally old.)
func TestNackAbandonOldestBeyondHalfSpan(t *testing.T) {
	g := wideSpanGenerator(2)
	if g.Missing() != 2 {
		t.Fatalf("missing = %d, want 2 after overflow", g.Missing())
	}
	nacks := g.Collect(time.Second)
	want := []uint16{40001, 40002}
	if len(nacks) != len(want) || nacks[0] != want[0] || nacks[1] != want[1] {
		t.Fatalf("survivors = %v, want %v (stale 1 and 2 must be the abandoned ones)", nacks, want)
	}
	if g.Abandoned() != 2 {
		t.Errorf("abandoned = %d, want 2", g.Abandoned())
	}
}

// TestNackWrapOverflowKeepsFreshGap registers a wrap-straddling gap that
// itself overflows MaxTracked: the abandoned entries must be the leading
// (oldest) sequences of the gap, keeping the newest.
func TestNackWrapOverflowKeepsFreshGap(t *testing.T) {
	g := NewNackGenerator()
	g.MaxTracked = 8
	g.OnPacket(65529)
	g.OnPacket(5) // 11-entry gap across the wrap; 3 must be abandoned
	if g.Missing() != 8 {
		t.Fatalf("missing = %d, want 8", g.Missing())
	}
	if g.Abandoned() != 3 {
		t.Fatalf("abandoned = %d, want 3", g.Abandoned())
	}
	nacks := g.Collect(time.Second)
	want := []uint16{65533, 65534, 65535, 0, 1, 2, 3, 4}
	if len(nacks) != len(want) {
		t.Fatalf("nacks = %v, want %v", nacks, want)
	}
	for i := range want {
		if nacks[i] != want[i] {
			t.Fatalf("nacks = %v, want %v", nacks, want)
		}
	}
}

func TestRtxBufferStoreGet(t *testing.T) {
	b := NewRtxBuffer(3)
	for i := 0; i < 5; i++ {
		b.Store(&Packet{Header: Header{Version: 2, SequenceNumber: uint16(i)}})
	}
	if b.Len() != 3 {
		t.Fatalf("len = %d, want 3", b.Len())
	}
	if _, ok := b.Get(0); ok {
		t.Error("evicted packet still present")
	}
	if p, ok := b.Get(4); !ok || p.SequenceNumber != 4 {
		t.Error("latest packet missing")
	}
}

func TestRtxBufferOverwrite(t *testing.T) {
	b := NewRtxBuffer(0) // default capacity
	p1 := &Packet{Header: Header{Version: 2, SequenceNumber: 7}, PayloadLen: 1}
	p2 := &Packet{Header: Header{Version: 2, SequenceNumber: 7}, PayloadLen: 2}
	b.Store(p1)
	b.Store(p2)
	if b.Len() != 1 {
		t.Fatalf("len = %d", b.Len())
	}
	got, _ := b.Get(7)
	if got.PayloadLen != 2 {
		t.Error("overwrite did not keep latest")
	}
}

// TestRtxBufferRingEviction pins FIFO eviction across many wraps of the
// circular order buffer, and that the buffer's backing array stops
// growing once full (the re-slicing implementation it replaces walked
// its window down the array and reallocated every cap stores).
func TestRtxBufferRingEviction(t *testing.T) {
	b := NewRtxBuffer(4)
	for i := 0; i < 4; i++ {
		b.Store(&Packet{Header: Header{Version: 2, SequenceNumber: uint16(i)}})
	}
	c0 := cap(b.seqs)
	for i := 4; i < 10_000; i++ {
		b.Store(&Packet{Header: Header{Version: 2, SequenceNumber: uint16(i)}})
	}
	if cap(b.seqs) != c0 || len(b.seqs) != 4 {
		t.Errorf("ring churned: len=%d cap=%d, want len=4 cap=%d", len(b.seqs), cap(b.seqs), c0)
	}
	if b.Len() != 4 {
		t.Fatalf("len = %d, want 4", b.Len())
	}
	for seq := 9996; seq < 10_000; seq++ {
		if _, ok := b.Get(uint16(seq)); !ok {
			t.Errorf("newest-4 packet %d missing", seq)
		}
	}
	if _, ok := b.Get(uint16(9995)); ok {
		t.Error("5th-newest packet survived eviction")
	}
}
