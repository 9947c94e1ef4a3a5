package fec

import (
	"math/rand"
	"slices"
	"testing"

	"rtcadapt/internal/rtp"
)

// refGroupEncoder and refDecoder are the map-based encoder and decoder the
// recycled ones replaced, kept verbatim as the reference model: the
// encoder allocates a fresh Protected slice per group, and the decoder
// aliases each repair's Protected, indexes groups and sequence numbers
// with maps and bounds both with head-sliced order slices.

// refGroupEncoder produces repair packets for outgoing media. Not safe for
// concurrent use.
type refGroupEncoder struct {
	// K is the group size: one repair per K media packets. Smaller K
	// means more overhead and more protection. Default 4.
	K    int
	ssrc uint32

	nextID  uint32
	pending []rtp.Packet
}

// newRefGroupEncoder returns an encoder emitting one repair per k media
// packets (k <= 0 selects 4) for the given SSRC.
func newRefGroupEncoder(ssrc uint32, k int) *refGroupEncoder {
	if k <= 0 {
		k = 4
	}
	return &refGroupEncoder{K: k, ssrc: ssrc}
}

// Overhead returns the nominal FEC bandwidth overhead fraction (1/K).
func (e *refGroupEncoder) Overhead() float64 { return 1 / float64(e.K) }

// Add offers one outgoing media packet; when a group fills, the repair
// packet is returned (nil otherwise).
func (e *refGroupEncoder) Add(pkt *rtp.Packet) *Repair {
	e.pending = append(e.pending, *pkt)
	if len(e.pending) < e.K {
		return nil
	}
	return e.flush()
}

// Flush emits a repair for a partial group (e.g. at end of frame), or nil
// if no packets are pending. Flushing frame-aligned groups keeps repair
// latency at zero frames.
func (e *refGroupEncoder) Flush() *Repair {
	if len(e.pending) == 0 {
		return nil
	}
	return e.flush()
}

func (e *refGroupEncoder) flush() *Repair {
	maxSize := 0
	for i := range e.pending {
		if s := e.pending[i].WireSize(); s > maxSize {
			maxSize = s
		}
	}
	rep := &Repair{
		RepairID:  e.nextID,
		SSRC:      e.ssrc,
		Protected: e.pending,
		WireBytes: maxSize + RepairHeaderBytes,
	}
	e.nextID++
	e.pending = nil
	return rep
}

// refDecoder reconstructs missing media packets from repairs. Not safe for
// concurrent use.
type refDecoder struct {
	// MaxGroups bounds memory; oldest groups are evicted. Default 64.
	MaxGroups int

	groups    map[uint32]*refGroup
	order     []uint32
	bySeq     map[uint16][]uint32 // media seq -> group ids
	received  map[uint16]bool     // recently received media seqs
	seqOrder  []uint16
	recovered int
}

type refGroup struct {
	id        uint32
	protected []rtp.Packet
	done      bool
}

// newRefDecoder returns an empty FEC decoder.
func newRefDecoder() *refDecoder {
	return &refDecoder{
		MaxGroups: 64,
		groups:    make(map[uint32]*refGroup),
		bySeq:     make(map[uint16][]uint32),
		received:  make(map[uint16]bool),
	}
}

// Recovered returns the number of packets reconstructed so far.
func (d *refDecoder) Recovered() int { return d.recovered }

// OnMedia records an arrived media packet and returns any packets newly
// recoverable as a result (a group that was missing two packets may
// become recoverable when one of them arrives).
func (d *refDecoder) OnMedia(seq uint16) []*rtp.Packet {
	d.markReceived(seq)
	var out []*rtp.Packet
	for _, gid := range d.bySeq[seq] {
		if g, ok := d.groups[gid]; ok {
			out = append(out, d.tryRecover(g)...)
		}
	}
	return out
}

// OnRepair records an arrived repair packet and returns any packets it
// recovers immediately.
func (d *refDecoder) OnRepair(rep *Repair) []*rtp.Packet {
	if _, exists := d.groups[rep.RepairID]; exists {
		return nil // duplicate
	}
	g := &refGroup{id: rep.RepairID, protected: rep.Protected}
	d.groups[rep.RepairID] = g
	d.order = append(d.order, rep.RepairID)
	for i := range rep.Protected {
		seq := rep.Protected[i].SequenceNumber
		d.bySeq[seq] = append(d.bySeq[seq], rep.RepairID)
	}
	d.evict()
	return d.tryRecover(g)
}

// tryRecover returns the single missing packet of g if exactly one is
// missing, marking it received.
func (d *refDecoder) tryRecover(g *refGroup) []*rtp.Packet {
	if g.done {
		return nil
	}
	missing := -1
	for i := range g.protected {
		if !d.received[g.protected[i].SequenceNumber] {
			if missing >= 0 {
				return nil // two or more missing: unrecoverable yet
			}
			missing = i
		}
	}
	g.done = true
	if missing < 0 {
		return nil // nothing missing
	}
	pkt := g.protected[missing]
	d.markReceived(pkt.SequenceNumber)
	d.recovered++
	out := []*rtp.Packet{&pkt}
	// Recovering this packet may unblock sibling groups.
	for _, gid := range d.bySeq[pkt.SequenceNumber] {
		if sib, ok := d.groups[gid]; ok && sib != g {
			out = append(out, d.tryRecover(sib)...)
		}
	}
	return out
}

func (d *refDecoder) markReceived(seq uint16) {
	if d.received[seq] {
		return
	}
	d.received[seq] = true
	d.seqOrder = append(d.seqOrder, seq)
	// Bound the received set to a window comfortably larger than any
	// plausible reordering span.
	const maxSeqs = 4096
	for len(d.seqOrder) > maxSeqs {
		old := d.seqOrder[0]
		d.seqOrder = d.seqOrder[1:]
		delete(d.received, old)
	}
}

func (d *refDecoder) evict() {
	for len(d.order) > d.MaxGroups {
		old := d.order[0]
		d.order = d.order[1:]
		if g, ok := d.groups[old]; ok {
			for i := range g.protected {
				seq := g.protected[i].SequenceNumber
				ids := d.bySeq[seq][:0]
				for _, id := range d.bySeq[seq] {
					if id != old {
						ids = append(ids, id)
					}
				}
				if len(ids) == 0 {
					delete(d.bySeq, seq)
				} else {
					d.bySeq[seq] = ids
				}
			}
			delete(d.groups, old)
		}
	}
}

// fecOps parameterises one equivalence stream: the sender's group size,
// the decoder's group bound, the media sequence number it starts at, the
// stream length in packets, the percentages of lost, reordered and (for
// repairs) duplicated deliveries, and the percentage of steps that also
// send a cross repair.
type fecOps struct {
	k, maxGroups             int
	start                    uint16
	packets                  int
	loss, reorder, duplicate int
	cross                    int
}

// fecDelivery is one scheduled arrival: a media sequence number, or the
// index of a repair in the stream's repair list.
type fecDelivery struct {
	seq    uint16
	repair int // -1 for media
}

// poisonRepair overwrites a repair, Protected included, with values no
// encoder produces.
func poisonRepair(rep *Repair) {
	for i := range rep.Protected[:cap(rep.Protected)] {
		rep.Protected[:cap(rep.Protected)][i] = rtp.Packet{
			Header:     rtp.Header{Version: 3, SequenceNumber: 0xdead, SSRC: 0xdeadbeef},
			Ext:        rtp.Extension{TransportSeq: 0xdeadbeef, FrameID: 0xdeadbeef, FragIndex: 0xdead, FragCount: 0xdead},
			PayloadLen: -1,
		}
	}
	rep.RepairID, rep.SSRC, rep.TransportSeq, rep.WireBytes = 0xdeadbeef, 0xdeadbeef, 0xdeadbeef, -1
}

// runFECEquivalence drives the recycled encoder and decoder and the
// reference model with one seeded stream and fails on the first
// difference in a repair, a recovered packet or the recovered count.
// Frames of 1..12 packets are flushed frame-aligned, as the session does;
// each media packet and repair is delivered on time, late by up to 40
// packets (reordering), or lost, a repair may arrive twice, and one in a
// hundred repairs arrives thousands of packets late, when the received
// window has moved past its group. Cross repairs, built here rather than
// by the encoder, protect a sorted random subset of the last 30 packets,
// so groups overlap (a recovery can unblock a sibling) and need not be
// contiguous. Once an encoder repair's last delivery is consumed it is
// poisoned and released to its encoder, so a decoder that kept a pointer
// into it would diverge.
func runFECEquivalence(t *testing.T, seed int64, ops fecOps) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	enc, ref := NewGroupEncoder(7, ops.k), newRefGroupEncoder(7, ops.k)
	dec, refDec := NewDecoder(), newRefDecoder()
	dec.MaxGroups, refDec.MaxGroups = ops.maxGroups, ops.maxGroups

	var repairs, refRepairs []*Repair
	var left []int // deliveries still scheduled per repair
	sched := map[int][]fecDelivery{}
	delay := func(base int) (int, bool) {
		switch r := rng.Intn(100); {
		case r < ops.loss:
			return 0, false
		case r < ops.loss+ops.reorder:
			return base + 1 + rng.Intn(40), true
		}
		return base, true
	}
	schedule := func(at int, d fecDelivery) { sched[at] = append(sched[at], d) }
	send := func(now int, rep, refRep *Repair) {
		i := len(repairs)
		repairs, refRepairs, left = append(repairs, rep), append(refRepairs, refRep), append(left, 0)
		copies := 1
		if rng.Intn(100) < ops.duplicate {
			copies = 2
		}
		for c := 0; c < copies; c++ {
			at, ok := delay(now)
			if rng.Intn(100) == 0 {
				at, ok = now+4097+rng.Intn(2000), true
			}
			if ok {
				schedule(at, fecDelivery{repair: i})
				left[i]++
			}
		}
	}
	emit := func(now int, rep, refRep *Repair) {
		if rep == nil || refRep == nil {
			if rep != refRep {
				t.Fatalf("seed %d step %d: repair %v, reference %v", seed, now, rep, refRep)
			}
			return
		}
		if rep.RepairID != refRep.RepairID || rep.SSRC != refRep.SSRC || rep.WireBytes != refRep.WireBytes ||
			!slices.Equal(rep.Protected, refRep.Protected) {
			t.Fatalf("seed %d step %d: repair\n%+v\nreference\n%+v", seed, now, *rep, *refRep)
		}
		send(now, rep, refRep)
	}
	var recent []rtp.Packet // the last 30 packets sent
	crossID := uint32(1 << 31)
	cross := func(now int) {
		n := 2 + rng.Intn(4)
		if n > len(recent) {
			return
		}
		picks := rng.Perm(len(recent))[:n]
		slices.Sort(picks)
		rep := &Repair{RepairID: crossID, SSRC: 7, WireBytes: 1}
		for _, p := range picks {
			rep.Protected = append(rep.Protected, recent[p])
		}
		crossID++
		send(now, rep, rep)
	}
	var got []*rtp.Packet
	deliver := func(now int, d fecDelivery) {
		var want []*rtp.Packet
		if d.repair < 0 {
			got = dec.OnMedia(got[:0], d.seq)
			want = refDec.OnMedia(d.seq)
		} else {
			got = dec.OnRepair(got[:0], repairs[d.repair])
			want = refDec.OnRepair(refRepairs[d.repair])
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d step %d %+v: recovered %d packets, reference %d", seed, now, d, len(got), len(want))
		}
		for i := range got {
			if *got[i] != *want[i] {
				t.Fatalf("seed %d step %d %+v: recovered\n%+v\nreference\n%+v", seed, now, d, *got[i], *want[i])
			}
		}
		if dec.Recovered() != refDec.Recovered() {
			t.Fatalf("seed %d step %d: Recovered %d, reference %d", seed, now, dec.Recovered(), refDec.Recovered())
		}
		if d.repair >= 0 && repairs[d.repair].RepairID < 1<<31 {
			if left[d.repair]--; left[d.repair] == 0 {
				poisonRepair(repairs[d.repair])
				enc.Release(repairs[d.repair])
				repairs[d.repair] = nil
			}
		}
	}
	run := func(now int) {
		for _, d := range sched[now] {
			deliver(now, d)
		}
		delete(sched, now)
	}

	seq, frameLeft := ops.start, 0
	now := 0
	for ; now < ops.packets; now++ {
		if frameLeft == 0 {
			frameLeft = 1 + rng.Intn(12)
		}
		pkt := &rtp.Packet{
			Header:     rtp.Header{Version: 2, SequenceNumber: seq, SSRC: 7},
			Ext:        rtp.Extension{TransportSeq: uint32(now), FrameID: uint32(now / 12), FragCount: 12},
			PayloadLen: 200 + rng.Intn(1000),
		}
		emit(now, enc.Add(pkt), ref.Add(pkt))
		if frameLeft--; frameLeft == 0 {
			emit(now, enc.Flush(), ref.Flush())
		}
		if recent = append(recent, *pkt); len(recent) > 30 {
			recent = recent[1:]
		}
		if rng.Intn(100) < ops.cross {
			cross(now)
		}
		if at, ok := delay(now); ok {
			schedule(at, fecDelivery{seq: seq, repair: -1})
		}
		seq++
		run(now)
	}
	for len(sched) > 0 {
		run(now)
		now++
	}
}

// TestFECMatchesReference drives the recycled encoder and decoder and the
// map-based reference model with 20 seeded streams — loss, reordering,
// duplicate repairs, overlapping cross repairs, group eviction past the
// bound, repairs arriving
// after the 4096-sequence received window has moved on, and the 2^16
// sequence wrap — and requires identical repairs, recoveries in the same
// order, and identical recovered counts.
func TestFECMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(-seed))
		ops := fecOps{
			k:         1 + rng.Intn(6),
			maxGroups: 64,
			start:     uint16(65536 - 1000 - rng.Intn(3000)),
			packets:   9000,
			loss:      rng.Intn(15),
			reorder:   rng.Intn(20),
			duplicate: rng.Intn(20),
			cross:     rng.Intn(20),
		}
		if seed%4 == 0 {
			ops.maxGroups = 1 + rng.Intn(8)
		}
		runFECEquivalence(t, seed, ops)
	}
}

// FuzzFECEquivalence runs runFECEquivalence over fuzzed stream shapes.
func FuzzFECEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(64), uint16(65000), uint16(3000), uint8(5), uint8(10), uint8(5), uint8(10))
	f.Add(int64(2), uint8(1), uint8(2), uint16(0), uint16(5000), uint8(30), uint8(30), uint8(30), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, k, maxGroups uint8, start, packets uint16, loss, reorder, dup, cross uint8) {
		runFECEquivalence(t, seed, fecOps{
			k:         1 + int(k%8),
			maxGroups: 1 + int(maxGroups%80),
			start:     start,
			packets:   int(packets % 6000),
			loss:      int(loss % 40),
			reorder:   int(reorder % 40),
			duplicate: int(dup % 40),
			cross:     int(cross % 40),
		})
	})
}
