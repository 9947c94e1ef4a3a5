package rtp

import "testing"

// The seq.go helpers are the blessed home of mod-2^16 arithmetic; each
// behavior the production call sites rely on gets a wrap regression test
// here (the pre-wrap cases live in the original call-site tests).

func TestSeqLessAcrossWrap(t *testing.T) {
	cases := []struct {
		a, b uint16
		want bool
	}{
		{0xFFFF, 0x0000, true},  // immediate wrap successor
		{0xFFFE, 0x0002, true},  // gap straddling the wrap
		{0x0002, 0xFFFE, false}, // reordered across the wrap
		{0xFFFF, 0xFFFF, false}, // equal
		{0x0000, 0x7FFF, true},  // just under half the space ahead
		{0x0000, 0x8000, false}, // exactly half: int16 distance is -32768
		{0x0000, 0x8001, false}, // past half: b is "behind" in RFC order
	}
	for _, c := range cases {
		if got := SeqLess(c.a, c.b); got != c.want {
			t.Errorf("SeqLess(%#x, %#x) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestSeqLessNonTransitive pins the property that motivated SeqAge: three
// values spaced over more than half the sequence space order cyclically
// under SeqLess, so it must never seed a sort.
func TestSeqLessNonTransitive(t *testing.T) {
	a, b, c := uint16(0x0000), uint16(0x6000), uint16(0xC000)
	if !SeqLess(a, b) || !SeqLess(b, c) {
		t.Fatal("expected a < b and b < c under SeqLess")
	}
	if SeqLess(a, c) {
		t.Fatal("expected c < a to close the cycle (non-transitivity); SeqLess(a, c) = true")
	}
}

func TestSeqDiffAcrossWrap(t *testing.T) {
	cases := []struct {
		a, b uint16
		want int
	}{
		{0x0002, 0xFFFE, 4},      // a ahead of b across the wrap
		{0xFFFE, 0x0002, -4},     // a trails b across the wrap
		{0x0005, 0x0002, 3},      // no wrap
		{0x0002, 0x0002, 0},      // equal
		{0x8000, 0x0000, -32768}, // half-space boundary is the negative extreme
	}
	for _, c := range cases {
		if got := SeqDiff(c.a, c.b); got != c.want {
			t.Errorf("SeqDiff(%#x, %#x) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestSeqAgeAcrossWrap(t *testing.T) {
	cases := []struct {
		anchor, s, want uint16
	}{
		{0x0001, 0xFFFF, 2}, // s two behind an anchor past the wrap
		{0x0000, 0xFFFF, 1},
		{0x0005, 0x0002, 3},
		{0x0002, 0x0002, 0},
		{0x0001, 0x0002, 0xFFFF}, // ahead of the anchor: maximally "old"
	}
	for _, c := range cases {
		if got := SeqAge(c.anchor, c.s); got != c.want {
			t.Errorf("SeqAge(%#x, %#x) = %d, want %d", c.anchor, c.s, got, c.want)
		}
	}
}

// TestSeqAgeTotalOrderAcrossWrap checks the property the NACK Collect
// sort depends on (via NackGenerator.seqAge = SeqAge(highest, s)): ages
// against one anchor order any set of distinct sequences consistently,
// even spanning more than half the space — exactly where SeqLess-based
// ordering breaks down.
func TestSeqAgeTotalOrderAcrossWrap(t *testing.T) {
	anchor := uint16(0x0010)
	// Oldest to newest behind the anchor, spanning > 2^15.
	seqs := []uint16{0x7000, 0xC000, 0xFFF0, 0x0008, 0x0010}
	for i := 0; i < len(seqs); i++ {
		for j := i + 1; j < len(seqs); j++ {
			if SeqAge(anchor, seqs[i]) <= SeqAge(anchor, seqs[j]) {
				t.Errorf("SeqAge(%#x, %#x) = %d not greater than SeqAge(%#x, %#x) = %d; total order violated",
					anchor, seqs[i], SeqAge(anchor, seqs[i]),
					anchor, seqs[j], SeqAge(anchor, seqs[j]))
			}
		}
	}
}
