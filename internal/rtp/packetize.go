package rtp

import (
	"slices"
	"time"

	"rtcadapt/internal/codec"
)

// Packetizer splits encoded frames into MTU-sized packets with continuous
// sequence numbers. Not safe for concurrent use.
//
// Packets are carved from slabs so a frame's worth of fragments costs one
// slab allocation per packetizerSlabSize packets instead of one per
// packet. Slab packets are ordinary heap objects from the caller's point
// of view — they stay valid indefinitely (retransmit history holds them
// across frames) unless their holder hands them back with Release, or
// the packetizer is re-initialised with Init, which rewinds to the first
// slab and hands every packet out again.
type Packetizer struct {
	mtu      int
	ssrc     uint32
	pt       byte
	seq      uint16
	twccSeq  uint32
	clockHz  uint32
	frameOut int

	slabs    [][]Packet // every slab carved so far, in order
	next     int        // index into slabs of the slab after cur
	cur      []Packet   // the slab packets are carved from
	slabUsed int        // packets carved from cur
	free     []*Packet
}

// packetizerSlabSize is the slab granularity. 256 packets ≈ 4 frames at
// typical HD bitrates; big enough to amortize, small enough not to strand
// memory on teardown.
const packetizerSlabSize = 256

// Release returns a packet this packetizer may overwrite with a later
// fragment or retransmission. Only the packet's last holder may release
// it: once released, any reference still held elsewhere aliases the next
// packet handed out. Packets never released (dropped, lost, or kept in a
// retransmission buffer) are simply garbage collected.
func (p *Packetizer) Release(pkt *Packet) { p.free = append(p.free, pkt) }

// newPacket pops a released packet or hands out a pointer into the current
// slab, moving to the next slab (carving a new one past the last) when the
// current one is exhausted. Slabs are never resized, so previously
// returned pointers stay valid. Every caller overwrites the whole packet:
// a recycled or rewound packet still holds its previous contents.
func (p *Packetizer) newPacket() *Packet {
	if n := len(p.free); n > 0 {
		pkt := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return pkt
	}
	if p.slabUsed == len(p.cur) {
		if p.next == len(p.slabs) {
			p.slabs = append(p.slabs, make([]Packet, packetizerSlabSize))
		}
		p.cur, p.slabUsed = p.slabs[p.next], 0
		p.next++
	}
	pkt := &p.cur[p.slabUsed]
	p.slabUsed++
	return pkt
}

// NewPacketizer returns a packetizer. mtu is the media payload budget per
// packet (headers not included); values <= 0 use DefaultMTU.
func NewPacketizer(ssrc uint32, payloadType byte, mtu int) *Packetizer {
	p := new(Packetizer)
	p.Init(ssrc, payloadType, mtu)
	return p
}

// Init restarts the packetizer as NewPacketizer would build it, keeping its
// slabs: the next packets are carved from the first slab again and the
// free list is emptied (a released packet left on it would be handed out
// twice). Every packet the packetizer handed out before is reused, so no
// holder may still reference one — in a session that means the previous
// run's links, pacer, retransmission buffer and scheduler are all reset.
func (p *Packetizer) Init(ssrc uint32, payloadType byte, mtu int) {
	if mtu <= 0 {
		mtu = DefaultMTU
	}
	clear(p.free)
	*p = Packetizer{mtu: mtu, ssrc: ssrc, pt: payloadType, clockHz: 90000, slabs: p.slabs, free: p.free[:0]}
}

// NextTransportSeq returns the transport-wide sequence number the next
// packet will carry.
func (p *Packetizer) NextTransportSeq() uint32 { return p.twccSeq }

// Packetize splits one encoded frame into packets. Skip frames yield nil.
// The last packet of each frame carries the RTP marker bit. Callers on the
// hot path should prefer PacketizeAppend with a reused destination slice.
func (p *Packetizer) Packetize(f codec.EncodedFrame) []*Packet {
	return p.PacketizeAppend(nil, f)
}

// PacketizeAppend is Packetize into a caller-owned slice: fragments are
// appended to dst and the extended slice is returned, so a caller that
// recycles dst across frames packetizes without allocating once the slice
// has grown to the working-set size. Skip frames append nothing.
func (p *Packetizer) PacketizeAppend(dst []*Packet, f codec.EncodedFrame) []*Packet {
	if f.Type == codec.TypeSkip || f.Bytes() == 0 {
		return dst
	}
	total := f.Bytes()
	n := (total + p.mtu - 1) / p.mtu
	ts := uint32(f.PTS.Seconds() * float64(p.clockHz))
	ftype := byte(0)
	if f.Type == codec.TypeP {
		ftype = 1
	}
	remaining := total
	for i := 0; i < n; i++ {
		size := p.mtu
		if remaining < size {
			size = remaining
		}
		remaining -= size
		pkt := p.newPacket()
		*pkt = Packet{
			Header: Header{
				Version:        2,
				Marker:         i == n-1,
				PayloadType:    p.pt,
				SequenceNumber: p.seq,
				Timestamp:      ts,
				SSRC:           p.ssrc,
			},
			Ext: Extension{
				TransportSeq:  p.twccSeq,
				FrameID:       uint32(f.Index),
				FragIndex:     uint16(i),
				FragCount:     uint16(n),
				FrameType:     ftype,
				TemporalLayer: byte(f.TemporalLayer),
				CaptureTS:     f.PTS,
			},
			PayloadLen: size,
		}
		p.seq++
		p.twccSeq++
		dst = append(dst, pkt)
	}
	p.frameOut++
	return dst
}

// AllocTransportSeq hands out the next transport-wide sequence number for
// a non-media packet that shares the congestion-controlled path (e.g. an
// FEC repair).
func (p *Packetizer) AllocTransportSeq() uint32 {
	v := p.twccSeq
	p.twccSeq++
	return v
}

// Retransmit clones a previously sent packet for retransmission: same RTP
// identity (sequence number, frame metadata) but a fresh transport-wide
// sequence number so congestion-control feedback treats it as a new
// transmission.
func (p *Packetizer) Retransmit(orig *Packet) *Packet {
	clone := p.newPacket()
	*clone = *orig
	clone.Ext.TransportSeq = p.twccSeq
	p.twccSeq++
	return clone
}

// CompleteFrame is a fully reassembled frame at the receiver.
type CompleteFrame struct {
	// FrameID is the sender-side capture index.
	FrameID uint32
	// FrameType is 0 for I, 1 for P.
	FrameType byte
	// TemporalLayer is the SVC temporal layer of the frame.
	TemporalLayer byte
	// CaptureTS is the sender capture time.
	CaptureTS time.Duration
	// Arrival is when the last fragment arrived.
	Arrival time.Duration
	// FirstArrival is when the first fragment arrived.
	FirstArrival time.Duration
	// Bytes is the total media payload size.
	Bytes int
	// Packets is the fragment count.
	Packets int
}

// OneWayDelay returns capture-to-complete-arrival latency.
func (f CompleteFrame) OneWayDelay() time.Duration { return f.Arrival - f.CaptureTS }

// Reassembler collects fragments into complete frames. Frames whose
// fragments stop arriving are abandoned once a newer frame completes and a
// horizon passes, so memory is bounded under loss. Not safe for concurrent
// use.
//
// Per-frame tracking records are pooled and fragment presence is a bitset,
// so steady-state reassembly does not allocate.
type Reassembler struct {
	pending map[uint32]*pendingFrame
	// Horizon is how far behind the newest completed frame a pending
	// frame may lag before it is declared lost. Default 64 frames.
	Horizon   uint32
	newestID  uint32
	hasNewest bool
	lost      []uint32

	free          []*pendingFrame
	expireScratch []uint32
}

type pendingFrame struct {
	frame    CompleteFrame
	got      []uint64 // fragment-presence bitset, grown on demand
	gotCount int
}

// has reports whether fragment i was already received.
func (pf *pendingFrame) has(i uint16) bool {
	w := int(i >> 6)
	return w < len(pf.got) && pf.got[w]&(1<<(i&63)) != 0
}

// set marks fragment i received, growing the bitset as needed (FragIndex
// is attacker/fuzzer-controlled and may be anywhere in uint16).
func (pf *pendingFrame) set(i uint16) {
	w := int(i >> 6)
	for w >= len(pf.got) {
		pf.got = append(pf.got, 0)
	}
	pf.got[w] |= 1 << (i & 63)
}

// acquire pops a pooled tracking record (bitset already zeroed by release)
// or mints one on first use.
func (r *Reassembler) acquire() *pendingFrame {
	if n := len(r.free); n > 0 {
		pf := r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
		return pf
	}
	return &pendingFrame{}
}

// release resets a tracking record and returns it to the pool. The bitset
// keeps its capacity so the next frame reuses it.
func (r *Reassembler) release(pf *pendingFrame) {
	pf.frame = CompleteFrame{}
	clear(pf.got)
	pf.gotCount = 0
	r.free = append(r.free, pf)
}

// NewReassembler returns an empty reassembler.
func NewReassembler() *Reassembler {
	r := new(Reassembler)
	r.Reset()
	return r
}

// Reset empties the reassembler back to NewReassembler's state (Horizon
// included), keeping its map, pool, lost list and scratch storage.
// Frames still pending are dropped without being reported lost.
func (r *Reassembler) Reset() {
	pending := r.pending
	if pending == nil {
		pending = make(map[uint32]*pendingFrame)
	}
	clear(pending)
	*r = Reassembler{pending: pending, Horizon: 64, lost: r.lost[:0], free: r.free, expireScratch: r.expireScratch[:0]}
}

// Push adds a received packet. If the packet completes its frame, the
// complete frame is returned with ok=true.
func (r *Reassembler) Push(pkt *Packet, arrival time.Duration) (CompleteFrame, bool) {
	id := pkt.Ext.FrameID
	pf, exists := r.pending[id]
	if !exists {
		pf = r.acquire()
		pf.frame = CompleteFrame{
			FrameID:       id,
			FrameType:     pkt.Ext.FrameType,
			TemporalLayer: pkt.Ext.TemporalLayer,
			CaptureTS:     pkt.Ext.CaptureTS,
			FirstArrival:  arrival,
		}
		r.pending[id] = pf
	}
	if pf.has(pkt.Ext.FragIndex) {
		return CompleteFrame{}, false // duplicate
	}
	pf.set(pkt.Ext.FragIndex)
	pf.gotCount++
	pf.frame.Bytes += pkt.PayloadLen
	if arrival > pf.frame.Arrival {
		pf.frame.Arrival = arrival
	}
	if arrival < pf.frame.FirstArrival {
		pf.frame.FirstArrival = arrival
	}
	if pf.gotCount < int(pkt.Ext.FragCount) {
		return CompleteFrame{}, false
	}
	// Frame complete. Copy the result out before the record goes back to
	// the pool.
	pf.frame.Packets = pf.gotCount
	frame := pf.frame
	delete(r.pending, id)
	r.release(pf)
	if !r.hasNewest || id > r.newestID {
		r.newestID = id
		r.hasNewest = true
	}
	r.expire()
	return frame, true
}

// expire abandons pending frames that fell behind the horizon. Expired
// ids are recorded in ascending order so the Lost() report does not
// depend on map iteration order.
func (r *Reassembler) expire() {
	if !r.hasNewest {
		return
	}
	expired := r.expireScratch[:0]
	for id := range r.pending {
		if id+r.Horizon < r.newestID {
			expired = append(expired, id)
		}
	}
	slices.Sort(expired)
	for _, id := range expired {
		pf := r.pending[id]
		delete(r.pending, id)
		r.release(pf)
		r.lost = append(r.lost, id)
	}
	r.expireScratch = expired[:0]
}

// Lost drains the list of frame IDs abandoned since the last call, or
// returns nil if there are none. The list is lent: it stays valid until
// the next Push or Reset, which reuse its storage.
func (r *Reassembler) Lost() []uint32 {
	if len(r.lost) == 0 {
		return nil
	}
	out := r.lost
	r.lost = r.lost[:0]
	return out
}

// PendingFrames returns how many frames have fragments waiting.
func (r *Reassembler) PendingFrames() int { return len(r.pending) }
