// Package fec implements XOR-based forward error correction for media
// packets, in the spirit of FlexFEC (RFC 8627): the sender emits one
// repair packet per group of K media packets; the receiver can reconstruct
// any single missing packet of a group from the repair plus the K-1
// received packets — no retransmission round trip.
//
// The simulator transports packet sizes rather than payload bytes, so the
// repair "carries" copies of the protected packets' headers; on a real
// wire the same information is recovered by XORing the received packets
// with the repair payload. The repair's wire size matches reality: the
// longest protected packet plus a small FEC header.
//
// Both ends keep their storage: the encoder hands out repairs from slabs
// and a free list (Release returns one), and the decoder copies each
// repair's protected packets into a fixed ring of groups. Neither
// allocates per packet group once its working set has grown.
package fec

import (
	"rtcadapt/internal/rtp"
)

// RepairHeaderBytes is the FEC header overhead on the wire.
const RepairHeaderBytes = 20

// Repair is one FEC repair packet protecting a group of media packets.
type Repair struct {
	// RepairID identifies the repair packet.
	RepairID uint32
	// SSRC is the protected flow.
	SSRC uint32
	// TransportSeq is assigned by the sender so congestion-control
	// feedback covers repair packets too.
	TransportSeq uint32
	// Protected holds copies of the protected packets (the simulator's
	// stand-in for the XOR payload).
	Protected []rtp.Packet
	// WireBytes is the on-wire size of the repair packet.
	WireBytes int
}

// WireSize returns the repair's on-wire size in bytes.
func (r *Repair) WireSize() int { return r.WireBytes }

// GroupEncoder produces repair packets for outgoing media. Not safe for
// concurrent use.
//
// Repairs are carved from slabs, each keeping its Protected buffer across
// uses. A repair stays valid until its holder hands it back with Release
// or the encoder is re-initialised with Init, which rewinds to the first
// slab and hands every repair out again.
type GroupEncoder struct {
	// K is the group size: one repair per K media packets. Smaller K
	// means more overhead and more protection. Default 4.
	K    int
	ssrc uint32

	nextID uint32
	cur    *Repair // the group being filled; nil between groups

	slabs    [][]Repair // every slab carved so far, in order
	next     int        // index into slabs of the slab after slab
	slab     []Repair   // the slab repairs are carved from
	slabUsed int        // repairs carved from slab
	free     []*Repair
}

// repairSlabSize is the slab granularity: about a second of repairs at
// the suite's rates.
const repairSlabSize = 64

// NewGroupEncoder returns an encoder emitting one repair per k media
// packets (k <= 0 selects 4) for the given SSRC.
func NewGroupEncoder(ssrc uint32, k int) *GroupEncoder {
	e := new(GroupEncoder)
	e.Init(ssrc, k)
	return e
}

// Init restarts the encoder as NewGroupEncoder(ssrc, k) would build it,
// keeping its slabs: the next repairs are carved from the first slab
// again and the free list is emptied (a released repair left on it would
// be handed out twice). Every repair the encoder handed out before is
// reused, so no holder may still reference one.
func (e *GroupEncoder) Init(ssrc uint32, k int) {
	if k <= 0 {
		k = 4
	}
	clear(e.free)
	*e = GroupEncoder{K: k, ssrc: ssrc, slabs: e.slabs, free: e.free[:0]}
}

// Overhead returns the nominal FEC bandwidth overhead fraction (1/K).
func (e *GroupEncoder) Overhead() float64 { return 1 / float64(e.K) }

// Add offers one outgoing media packet; when a group fills, the repair
// packet is returned (nil otherwise). The repair copies the packet.
func (e *GroupEncoder) Add(pkt *rtp.Packet) *Repair {
	if e.cur == nil {
		e.cur = e.newRepair()
	}
	e.cur.Protected = append(e.cur.Protected, *pkt)
	if len(e.cur.Protected) < e.K {
		return nil
	}
	return e.flush()
}

// Flush emits a repair for a partial group (e.g. at end of frame), or nil
// if no packets are pending. Flushing frame-aligned groups keeps repair
// latency at zero frames.
func (e *GroupEncoder) Flush() *Repair {
	if e.cur == nil {
		return nil
	}
	return e.flush()
}

func (e *GroupEncoder) flush() *Repair {
	rep := e.cur
	maxSize := 0
	for i := range rep.Protected {
		if s := rep.Protected[i].WireSize(); s > maxSize {
			maxSize = s
		}
	}
	rep.RepairID = e.nextID
	rep.SSRC = e.ssrc
	rep.TransportSeq = 0
	rep.WireBytes = maxSize + RepairHeaderBytes
	e.nextID++
	e.cur = nil
	return rep
}

// Release returns a repair the encoder may hand out again. Only the
// repair's last holder may release it: once released, any reference still
// held elsewhere aliases a later group. Repairs never released (dropped
// or lost) stay with the encoder's slabs until Init.
func (e *GroupEncoder) Release(rep *Repair) { e.free = append(e.free, rep) }

// newRepair pops a released repair or carves one from the current slab,
// moving to the next slab (carving a new one past the last) when the
// current one is exhausted. Its Protected buffer comes back empty with
// room for a full group.
func (e *GroupEncoder) newRepair() *Repair {
	var rep *Repair
	if n := len(e.free); n > 0 {
		rep = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		if e.slabUsed == len(e.slab) {
			if e.next == len(e.slabs) {
				e.slabs = append(e.slabs, make([]Repair, repairSlabSize))
			}
			e.slab, e.slabUsed = e.slabs[e.next], 0
			e.next++
		}
		rep = &e.slab[e.slabUsed]
		e.slabUsed++
	}
	if cap(rep.Protected) < e.K {
		rep.Protected = make([]rtp.Packet, 0, e.K)
	}
	rep.Protected = rep.Protected[:0]
	return rep
}

// Decoder reconstructs missing media packets from repairs. Not safe for
// concurrent use.
//
// It keeps the MaxGroups most recent repairs in arrival order, each as a
// copy of its protected packets in a ring slot whose storage is reused,
// and the 4096 most recent distinct media sequence numbers it has seen or
// recovered in a bitset with an arrival-order ring. A repair is never
// referenced after OnRepair returns.
//
// A group is done once it has nothing left to recover, which on a
// typical path is as soon as its repair arrives. Media packets and
// recoveries look only at the groups still open, so their cost does not
// grow with MaxGroups.
type Decoder struct {
	// MaxGroups bounds memory; oldest groups are evicted. Default 64.
	MaxGroups int

	groups    []group // ring of the live groups, oldest at head
	head, n   int
	recovered int

	// open holds the ring slots of the live groups not yet done, in
	// arrival order. A group done during a call stays listed until the
	// call returns (see pruneOpen), so every scan skips done groups.
	open []int

	received [1 << 16 / 64]uint64 // bitset of the seqs in seqRing
	seqRing  [maxSeqs]uint16      // recently received seqs, oldest at seqHead
	seqHead  int
	seqN     int
}

// maxSeqs bounds the received set to a window comfortably larger than any
// plausible reordering span. A power of two.
const maxSeqs = 4096

type group struct {
	id        uint32
	protected []rtp.Packet
	// contiguous reports that protected holds first, first+1, … in
	// order, as every encoder group does; has then tests a range.
	first      uint16
	contiguous bool
	done       bool
}

// has reports whether the group protects seq.
func (g *group) has(seq uint16) bool {
	if g.contiguous {
		return int(rtp.SeqAge(seq, g.first)) < len(g.protected)
	}
	for i := range g.protected {
		if g.protected[i].SequenceNumber == seq {
			return true
		}
	}
	return false
}

// NewDecoder returns an empty FEC decoder.
func NewDecoder() *Decoder {
	d := new(Decoder)
	d.Reset()
	return d
}

// Reset empties the decoder as NewDecoder would build it, keeping its
// group storage.
func (d *Decoder) Reset() {
	*d = Decoder{MaxGroups: 64, groups: d.groups, open: d.open[:0]}
}

// Recovered returns the number of packets reconstructed so far.
func (d *Decoder) Recovered() int { return d.recovered }

// OnMedia records an arrived media packet and appends to dst any packets
// newly recoverable as a result (a group that was missing two packets may
// become recoverable when one of them arrives), returning the extended
// slice. Recovered packets point into the decoder's storage and stay
// valid until its next OnRepair or Reset.
func (d *Decoder) OnMedia(dst []*rtp.Packet, seq uint16) []*rtp.Packet {
	d.markReceived(seq)
	for _, slot := range d.open {
		if g := &d.groups[slot]; !g.done && g.has(seq) {
			dst = d.tryRecover(dst, g)
		}
	}
	d.pruneOpen()
	return dst
}

// OnRepair records an arrived repair packet, copying what it protects,
// and appends to dst any packets it recovers immediately, returning the
// extended slice. Recovered packets are valid as OnMedia's are.
func (d *Decoder) OnRepair(dst []*rtp.Packet, rep *Repair) []*rtp.Packet {
	older, newer := d.live()
	for _, run := range [2][]group{older, newer} {
		for i := range run {
			if run[i].id == rep.RepairID {
				return dst // duplicate
			}
		}
	}
	d.reserve()
	slot := (d.head + d.n) % len(d.groups)
	g := &d.groups[slot]
	g.id, g.done = rep.RepairID, false
	g.protected = append(g.protected[:0], rep.Protected...)
	g.contiguous = true
	if len(g.protected) > 0 {
		g.first = g.protected[0].SequenceNumber
	}
	for i := range g.protected {
		if int(rtp.SeqAge(g.protected[i].SequenceNumber, g.first)) != i {
			g.contiguous = false
			break
		}
	}
	d.n++
	d.open = append(d.open, slot)
	for d.n > d.MaxGroups && d.n > 0 {
		// The oldest live group, if still open, heads the open list.
		if !d.groups[d.head].done {
			d.open = d.open[:copy(d.open, d.open[1:])]
		}
		d.head = (d.head + 1) % len(d.groups)
		d.n--
	}
	dst = d.tryRecover(dst, g)
	d.pruneOpen()
	return dst
}

// at returns the i-th live group in arrival order.
func (d *Decoder) at(i int) *group { return &d.groups[(d.head+i)%len(d.groups)] }

// live returns the live groups in arrival order, as the run from head to
// the end of the ring and the run that wrapped around to its start.
func (d *Decoder) live() (older, newer []group) {
	if end := d.head + d.n; end <= len(d.groups) {
		return d.groups[d.head:end], nil
	}
	return d.groups[d.head:], d.groups[:d.head+d.n-len(d.groups)]
}

// pruneOpen drops the groups that were done during the call from the
// open list.
func (d *Decoder) pruneOpen() {
	open := d.open[:0]
	for _, slot := range d.open {
		if !d.groups[slot].done {
			open = append(open, slot)
		}
	}
	d.open = open
}

// reserve makes room in the ring for one group beyond MaxGroups, keeping
// the live groups in order.
func (d *Decoder) reserve() {
	need := max(d.MaxGroups, 0) + 1
	if len(d.groups) >= need {
		return
	}
	grown := make([]group, need)
	for i := range d.groups {
		grown[i] = *d.at(i)
	}
	for k, slot := range d.open {
		d.open[k] = (slot - d.head + len(d.groups)) % len(d.groups)
	}
	d.groups, d.head = grown, 0
}

// tryRecover appends the single missing packet of g to dst if exactly one
// is missing, marking it received, then whatever that unblocks in sibling
// groups.
func (d *Decoder) tryRecover(dst []*rtp.Packet, g *group) []*rtp.Packet {
	if g.done {
		return dst
	}
	missing := -1
	for i := range g.protected {
		if !d.isReceived(g.protected[i].SequenceNumber) {
			if missing >= 0 {
				return dst // two or more missing: unrecoverable yet
			}
			missing = i
		}
	}
	g.done = true
	if missing < 0 {
		return dst // nothing missing
	}
	pkt := &g.protected[missing]
	d.markReceived(pkt.SequenceNumber)
	d.recovered++
	dst = append(dst, pkt)
	// Recovering this packet may unblock sibling groups; g itself is
	// done now.
	for _, slot := range d.open {
		if sib := &d.groups[slot]; !sib.done && sib.has(pkt.SequenceNumber) {
			dst = d.tryRecover(dst, sib)
		}
	}
	return dst
}

func (d *Decoder) isReceived(seq uint16) bool {
	return d.received[seq>>6]&(1<<(seq&63)) != 0
}

func (d *Decoder) markReceived(seq uint16) {
	if d.isReceived(seq) {
		return
	}
	d.received[seq>>6] |= 1 << (seq & 63)
	if d.seqN < maxSeqs {
		d.seqRing[(d.seqHead+d.seqN)%maxSeqs] = seq
		d.seqN++
		return
	}
	old := d.seqRing[d.seqHead]
	d.received[old>>6] &^= 1 << (old & 63)
	d.seqRing[d.seqHead] = seq
	d.seqHead = (d.seqHead + 1) % maxSeqs
}
