package metrics

import (
	"testing"
	"unsafe"
)

// TestFrameRecordSizeClass pins the ledger record at 48 bytes: four 8-byte
// fields, two int32s and four single-byte fields, 44 bytes of data and 4
// of tail padding. Every Result a caller keeps holds one record per
// captured frame, so a 30 s flow's ledger is 901 x 48 B (49,152 B
// allocated); at the 80 B the record had with int fields it was 73,728 B.
// Up to 4 more bytes of fields fit without growing it; an 8-byte field
// makes it 56 B, and that should be a deliberate change to this number.
func TestFrameRecordSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(FrameRecord{}); size != 48 {
		t.Fatalf("a FrameRecord takes %d B, want 48", size)
	}
}
