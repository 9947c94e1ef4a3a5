package rtp

// RFC 3550 sequence-number arithmetic. RTP sequence numbers live in
// mod-2^16 space, where raw machine comparison and subtraction are both
// wrong for any pair straddling the wrap; every ordering or distance
// computation goes through these helpers. They are the one sanctioned
// home of raw uint16 arithmetic on sequence values, and each carries a
// 2^16-wrap regression test in seq_test.go; the NACK and FEC wrap tests
// fail on a raw comparison at their call sites.

// SeqLess compares RTP sequence numbers with 16-bit wraparound (RFC 3550
// arithmetic): a < b iff the signed distance from a to b is positive.
//
// SeqLess is a correct pairwise ordering but is non-transitive on sets
// spanning 2^15 or more of the sequence space, so it must never seed a
// sort; order by SeqAge against a fixed anchor instead.
func SeqLess(a, b uint16) bool {
	return a != b && int16(b-a) > 0
}

// SeqDiff returns the signed mod-2^16 distance from b to a: positive
// when a is ahead of b, negative when it trails, in [-32768, 32767].
func SeqDiff(a, b uint16) int {
	return int(int16(a - b))
}

// SeqAge returns how far s trails the anchor sequence, wrap-aware.
// Unlike SeqLess, age against a single anchor induces a strict total
// order over the entire sequence space, so it is safe to sort by.
func SeqAge(anchor, s uint16) uint16 {
	return anchor - s
}
