package rtp

import (
	"cmp"
	"slices"
	"time"
)

// NackGenerator tracks received RTP sequence numbers, detects gaps, and
// emits NACK lists for feedback packets. Each missing sequence is
// requested up to MaxRetries times with at least RetryInterval between
// requests, then abandoned. Not safe for concurrent use.
type NackGenerator struct {
	// MaxRetries bounds requests per missing packet. Default 3.
	MaxRetries int
	// RetryInterval is the minimum spacing between requests for the
	// same sequence. Default 50 ms.
	RetryInterval time.Duration
	// MaxTracked bounds the missing set; the oldest entries are
	// abandoned beyond it. Default 256.
	MaxTracked int

	highest    uint16
	started    bool
	missing    map[uint16]nackEntry
	order      []uint16 // Collect's scratch: missing sequences, oldest first
	recovered  int
	abandoned  int
	duplicates int
}

type nackEntry struct {
	lastAsked time.Duration
	asks      int
	everAsked bool
}

// NewNackGenerator returns a generator with defaults.
func NewNackGenerator() *NackGenerator {
	g := new(NackGenerator)
	g.Reset()
	return g
}

// Reset restores NewNackGenerator's state, defaults included, keeping the
// missing set's map and Collect's scratch storage.
func (g *NackGenerator) Reset() {
	missing := g.missing
	if missing == nil {
		missing = make(map[uint16]nackEntry)
	}
	clear(missing)
	*g = NackGenerator{
		MaxRetries:    3,
		RetryInterval: 50 * time.Millisecond,
		MaxTracked:    256,
		missing:       missing,
		order:         g.order[:0],
	}
}

// OnPacket records an arrived RTP sequence number, registering any gap it
// reveals and clearing the sequence from the missing set if it was a
// retransmission.
func (g *NackGenerator) OnPacket(seq uint16) {
	if !g.started {
		g.started = true
		g.highest = seq
		return
	}
	if _, wasMissing := g.missing[seq]; wasMissing {
		delete(g.missing, seq)
		g.recovered++
		return
	}
	if !SeqLess(g.highest, seq) {
		// Old duplicate or reordering we already accounted for.
		g.duplicates++
		return
	}
	// Register the gap (prev, seq) as missing. highest advances BEFORE
	// the loop: abandonOldest measures age against g.highest, and with
	// the old anchor every just-inserted sequence (ahead of the old
	// highest) would wrap around to look maximally old and be evicted
	// in place of the genuinely stale entries.
	prev := g.highest
	g.highest = seq
	for s := prev + 1; s != seq; s++ {
		g.missing[s] = nackEntry{}
		if len(g.missing) > g.MaxTracked {
			g.abandonOldest()
		}
	}
}

// seqAge returns how far missing sequence s trails the highest received
// sequence — SeqAge anchored at g.highest. Unlike a SeqLess-based
// comparison, age against a single anchor induces a true total order
// over the whole sequence space, so ordering stays correct even when an
// entry has lingered through enough Collect cycles for the missing set
// to straddle the 2^16 wrap by more than half the space.
func (g *NackGenerator) seqAge(s uint16) uint16 { return SeqAge(g.highest, s) }

// abandonOldest drops the missing entry that trails highest furthest
// (wrap-aware).
func (g *NackGenerator) abandonOldest() {
	var oldest uint16
	var oldestAge uint16
	first := true
	for s := range g.missing {
		if age := g.seqAge(s); first || age > oldestAge {
			oldest, oldestAge = s, age
			first = false
		}
	}
	if !first {
		delete(g.missing, oldest)
		g.abandoned++
	}
}

// Collect appends the sequences to NACK at time now to dst and returns the
// extended slice, respecting retry limits; a caller that recycles its
// buffer (the session reuses each report's Nacks) collects without
// allocating once the buffer has grown. Sequences that exhausted their
// retries are abandoned. Missing sequences are visited in wrap-aware
// order so retry bookkeeping and abandonment are independent of map
// iteration order.
func (g *NackGenerator) Collect(dst []uint16, now time.Duration) []uint16 {
	seqs := g.order[:0]
	for s := range g.missing {
		seqs = append(seqs, s)
	}
	// Oldest first, by age against the highest-received anchor. Ages are
	// distinct (sequences are map keys), so this is a strict total order
	// regardless of how far the set straddles the 2^16 wrap; a SeqLess
	// comparator would go non-transitive past half the sequence space
	// and leave the visit order at the sort algorithm's mercy.
	slices.SortFunc(seqs, func(a, b uint16) int { return cmp.Compare(g.seqAge(b), g.seqAge(a)) })
	g.order = seqs

	for _, s := range seqs {
		e := g.missing[s]
		if e.asks >= g.MaxRetries {
			delete(g.missing, s)
			g.abandoned++
			continue
		}
		if e.everAsked && now-e.lastAsked < g.RetryInterval {
			continue
		}
		e.asks++
		e.lastAsked = now
		e.everAsked = true
		g.missing[s] = e
		dst = append(dst, s)
	}
	return dst
}

// Missing returns the current number of outstanding missing sequences.
func (g *NackGenerator) Missing() int { return len(g.missing) }

// Recovered returns how many missing sequences later arrived.
func (g *NackGenerator) Recovered() int { return g.recovered }

// Abandoned returns how many sequences were given up on.
func (g *NackGenerator) Abandoned() int { return g.abandoned }

// RtxBuffer is the sender-side retransmission store: a bounded ring of
// recently sent media packets keyed by RTP sequence number. Not safe for
// concurrent use.
//
// seqs and pkts are a ring of the stored packets in insertion order; head
// indexes the oldest once the ring is full, and eviction overwrites in
// place. index finds a sequence number's ring slot: an open-addressed
// table of twice the capacity with linear probing and backward-shift
// deletion, so it never holds tombstones and never grows. A key's home
// bucket is a Fibonacci hash of it: consecutive sequence numbers then
// scatter across the table instead of filling one contiguous probe run,
// which every deletion would otherwise walk to its end. Both are
// allocated once, in NewRtxBuffer: a Go map would rehash through every
// power of two up to the capacity in each session that enables NACK, and
// again as deletions accumulate.
type RtxBuffer struct {
	seqs  []uint16
	pkts  []*Packet
	head  int
	index []int32 // ring slot + 1; zero marks an empty bucket
	mask  int
	shift uint // 32 - log2(len(index)), for home
}

// NewRtxBuffer returns a buffer holding up to capacity packets (default
// 512 when capacity <= 0).
func NewRtxBuffer(capacity int) *RtxBuffer {
	b := new(RtxBuffer)
	b.Init(capacity)
	return b
}

// Init empties the buffer for up to capacity packets (default 512 when
// capacity <= 0), reusing its ring and index when the capacity is
// unchanged. Every packet reference is dropped.
func (b *RtxBuffer) Init(capacity int) {
	if capacity <= 0 {
		capacity = 512
	}
	buckets, shift := 1, uint(32)
	for buckets < 2*capacity {
		buckets <<= 1
		shift--
	}
	if cap(b.seqs) != capacity || len(b.index) != buckets {
		*b = RtxBuffer{
			seqs:  make([]uint16, 0, capacity),
			pkts:  make([]*Packet, 0, capacity),
			index: make([]int32, buckets),
			mask:  buckets - 1,
			shift: shift,
		}
		return
	}
	clear(b.pkts) // slots past len were never written
	clear(b.index)
	b.seqs, b.pkts, b.head = b.seqs[:0], b.pkts[:0], 0
}

// home is seq's home bucket: the top bits of seq times 2^32/φ. The
// multiplier spreads any run of consecutive keys near-evenly over the
// table, so probe runs stay short at the index's half load.
func (b *RtxBuffer) home(seq uint16) int {
	return int(uint32(seq) * 0x9e3779b9 >> b.shift)
}

// find returns the bucket holding seq, or the empty bucket ending its
// probe sequence and false.
func (b *RtxBuffer) find(seq uint16) (int, bool) {
	for i := b.home(seq); ; i = (i + 1) & b.mask {
		slot := b.index[i]
		if slot == 0 {
			return i, false
		}
		if b.seqs[slot-1] == seq {
			return i, true
		}
	}
}

// unindex empties bucket i and shifts later members of its probe run back
// so every remaining key stays reachable from its home bucket.
func (b *RtxBuffer) unindex(i int) {
	for j := (i + 1) & b.mask; b.index[j] != 0; j = (j + 1) & b.mask {
		home := b.home(b.seqs[b.index[j]-1])
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-home)&b.mask >= (j-i)&b.mask {
			b.index[i] = b.index[j]
			i = j
		}
	}
	b.index[i] = 0
}

// Store remembers a sent packet for possible retransmission, evicting
// the oldest stored packet once the buffer is full.
func (b *RtxBuffer) Store(pkt *Packet) {
	seq := pkt.SequenceNumber
	i, ok := b.find(seq)
	if ok {
		b.pkts[b.index[i]-1] = pkt
		return
	}
	if len(b.seqs) < cap(b.seqs) {
		b.seqs = append(b.seqs, seq)
		b.pkts = append(b.pkts, pkt)
		b.index[i] = int32(len(b.seqs))
		return
	}
	old, _ := b.find(b.seqs[b.head])
	b.unindex(old)
	b.seqs[b.head], b.pkts[b.head] = seq, pkt
	// The deletion may have shifted the new key's probe run.
	i, _ = b.find(seq)
	b.index[i] = int32(b.head + 1)
	b.head = (b.head + 1) % len(b.seqs)
}

// Get returns the stored packet for seq, if still buffered.
func (b *RtxBuffer) Get(seq uint16) (*Packet, bool) {
	i, ok := b.find(seq)
	if !ok {
		return nil, false
	}
	return b.pkts[b.index[i]-1], true
}

// Len returns the number of buffered packets.
func (b *RtxBuffer) Len() int { return len(b.seqs) }
