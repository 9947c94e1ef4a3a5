package fec

import (
	"testing"
	"testing/quick"

	"rtcadapt/internal/rtp"
)

func mkPkt(seq uint16, size int) *rtp.Packet {
	return &rtp.Packet{
		Header:     rtp.Header{Version: 2, SequenceNumber: seq, SSRC: 1},
		Ext:        rtp.Extension{FrameID: uint32(seq) / 4, FragIndex: seq % 4, FragCount: 4},
		PayloadLen: size,
	}
}

func TestEncoderGroupsOfK(t *testing.T) {
	e := NewGroupEncoder(1, 3)
	var repairs []*Repair
	for seq := uint16(0); seq < 9; seq++ {
		if r := e.Add(mkPkt(seq, 1000)); r != nil {
			repairs = append(repairs, r)
		}
	}
	if len(repairs) != 3 {
		t.Fatalf("repairs = %d, want 3", len(repairs))
	}
	for i, r := range repairs {
		if len(r.Protected) != 3 {
			t.Errorf("repair %d protects %d packets", i, len(r.Protected))
		}
		if r.RepairID != uint32(i) {
			t.Errorf("repair %d id %d", i, r.RepairID)
		}
	}
}

func TestEncoderFlushPartial(t *testing.T) {
	e := NewGroupEncoder(1, 4)
	e.Add(mkPkt(0, 500))
	e.Add(mkPkt(1, 800))
	r := e.Flush()
	if r == nil || len(r.Protected) != 2 {
		t.Fatalf("flush returned %+v", r)
	}
	if e.Flush() != nil {
		t.Error("second flush should be nil")
	}
	// Repair size = max protected wire size + header.
	want := mkPkt(1, 800).WireSize() + RepairHeaderBytes
	if r.WireSize() != want {
		t.Errorf("repair size %d, want %d", r.WireSize(), want)
	}
}

func TestEncoderOverhead(t *testing.T) {
	if NewGroupEncoder(1, 4).Overhead() != 0.25 {
		t.Error("overhead of K=4 should be 0.25")
	}
	if NewGroupEncoder(1, 0).K != 4 {
		t.Error("default K should be 4")
	}
}

func TestDecoderRecoversSingleLoss(t *testing.T) {
	e := NewGroupEncoder(1, 4)
	d := NewDecoder()
	var repair *Repair
	for seq := uint16(0); seq < 4; seq++ {
		r := e.Add(mkPkt(seq, 1000))
		if r != nil {
			repair = r
		}
		if seq == 2 {
			continue // lose packet 2
		}
		if rec := d.OnMedia(nil, seq); len(rec) != 0 {
			t.Fatalf("premature recovery: %v", rec)
		}
	}
	rec := d.OnRepair(nil, repair)
	if len(rec) != 1 {
		t.Fatalf("recovered %d packets, want 1", len(rec))
	}
	if rec[0].SequenceNumber != 2 {
		t.Errorf("recovered seq %d, want 2", rec[0].SequenceNumber)
	}
	if d.Recovered() != 1 {
		t.Errorf("Recovered() = %d", d.Recovered())
	}
}

func TestDecoderRepairBeforeMedia(t *testing.T) {
	// Repair arrives first; media trickles in; the last missing packet
	// becomes recoverable when K-1 have arrived.
	e := NewGroupEncoder(1, 3)
	d := NewDecoder()
	var repair *Repair
	pkts := []*rtp.Packet{mkPkt(0, 100), mkPkt(1, 100), mkPkt(2, 100)}
	for _, p := range pkts {
		if r := e.Add(p); r != nil {
			repair = r
		}
	}
	if rec := d.OnRepair(nil, repair); len(rec) != 0 {
		t.Fatal("recovered with zero media packets")
	}
	if rec := d.OnMedia(nil, 0); len(rec) != 0 {
		t.Fatal("recovered with one of three")
	}
	rec := d.OnMedia(nil, 1)
	if len(rec) != 1 || rec[0].SequenceNumber != 2 {
		t.Fatalf("recovery on second media arrival: %v", rec)
	}
}

func TestDecoderCannotRecoverDoubleLoss(t *testing.T) {
	e := NewGroupEncoder(1, 4)
	d := NewDecoder()
	var repair *Repair
	for seq := uint16(0); seq < 4; seq++ {
		if r := e.Add(mkPkt(seq, 100)); r != nil {
			repair = r
		}
	}
	d.OnMedia(nil, 0)
	d.OnMedia(nil, 1)
	// 2 and 3 both lost: unrecoverable.
	if rec := d.OnRepair(nil, repair); len(rec) != 0 {
		t.Errorf("recovered a double loss: %v", rec)
	}
	if d.Recovered() != 0 {
		t.Error("counter moved on unrecoverable group")
	}
}

func TestDecoderFullGroupNoRecovery(t *testing.T) {
	e := NewGroupEncoder(1, 2)
	d := NewDecoder()
	var repair *Repair
	for seq := uint16(0); seq < 2; seq++ {
		if r := e.Add(mkPkt(seq, 100)); r != nil {
			repair = r
		}
		d.OnMedia(nil, seq)
	}
	if rec := d.OnRepair(nil, repair); len(rec) != 0 {
		t.Errorf("recovered from a complete group: %v", rec)
	}
}

func TestDecoderDuplicateRepair(t *testing.T) {
	e := NewGroupEncoder(1, 2)
	d := NewDecoder()
	e.Add(mkPkt(0, 100))
	repair := e.Add(mkPkt(1, 100))
	d.OnMedia(nil, 0)
	if rec := d.OnRepair(nil, repair); len(rec) != 1 {
		t.Fatalf("first repair: %v", rec)
	}
	if rec := d.OnRepair(nil, repair); len(rec) != 0 {
		t.Errorf("duplicate repair recovered again: %v", rec)
	}
}

func TestDecoderEviction(t *testing.T) {
	d := NewDecoder()
	d.MaxGroups = 4
	e := NewGroupEncoder(1, 2)
	for seq := uint16(0); seq < 40; seq += 2 {
		e.Add(mkPkt(seq, 100))
		r := e.Add(mkPkt(seq+1, 100))
		d.OnRepair(nil, r)
	}
	if d.n > 4 {
		t.Errorf("groups = %d, want <= 4", d.n)
	}
}

// Property: with one loss per group, FEC recovers every lost packet.
func TestFECSingleLossRecoveryProperty(t *testing.T) {
	f := func(lossIdx []uint8) bool {
		if len(lossIdx) == 0 || len(lossIdx) > 50 {
			return true
		}
		const k = 4
		e := NewGroupEncoder(1, k)
		d := NewDecoder()
		d.MaxGroups = 256
		recoveredTotal := 0
		lostTotal := 0
		seq := uint16(0)
		for _, li := range lossIdx {
			lose := int(li) % k
			var repair *Repair
			for i := 0; i < k; i++ {
				p := mkPkt(seq, 100+int(seq))
				if r := e.Add(p); r != nil {
					repair = r
				}
				if i != lose {
					recoveredTotal += len(d.OnMedia(nil, p.SequenceNumber))
				} else {
					lostTotal++
				}
				seq++
			}
			recoveredTotal += len(d.OnRepair(nil, repair))
		}
		return recoveredTotal == lostTotal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDecoderCopiesRepair overwrites a repair's Protected packets after
// OnRepair has returned, as a sender recycling the repair would, and then
// recovers from its group: the recovered packet must be the original,
// because the decoder keeps a copy of what a repair protects rather than
// the repair's own buffer.
func TestDecoderCopiesRepair(t *testing.T) {
	e := NewGroupEncoder(1, 4)
	d := NewDecoder()
	var repair *Repair
	var sent []rtp.Packet
	for seq := uint16(0); seq < 4; seq++ {
		p := mkPkt(seq, 300+int(seq))
		sent = append(sent, *p)
		if r := e.Add(p); r != nil {
			repair = r
		}
	}
	d.OnMedia(nil, 0)
	d.OnMedia(nil, 1)
	// 2 and 3 are missing: the group stays open after its repair.
	if rec := d.OnRepair(nil, repair); len(rec) != 0 {
		t.Fatalf("recovered %d packets from a double loss", len(rec))
	}
	for i := range repair.Protected {
		repair.Protected[i] = rtp.Packet{Header: rtp.Header{SequenceNumber: 0xdead}, PayloadLen: -1}
	}
	rec := d.OnMedia(nil, 3)
	if len(rec) != 1 || *rec[0] != sent[2] {
		t.Fatalf("recovered %v after the repair was overwritten, want packet 2 as sent: %+v", rec, sent[2])
	}
}
