package obs

import (
	"testing"
	"time"

	"rtcadapt/internal/simtime"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	// Every exported method must be a no-op on nil.
	r.SetClock(simtime.NewScheduler())
	r.Emit(TrackCC, KindEstimateUpdated, num("target", 1))
	r.EstimateUpdated(1e6, "normal", 0, 0, 0)
	r.DropDetected(1, 2, 3)
	r.ControllerAction("enter-recovery", 1)
	r.FrameEncoded(0, "I", 1000, 30, 0.97, 1)
	r.FrameSkipped(1, time.Millisecond)
	r.FrameDropped(2)
	r.PacketSent(1, 1200)
	r.PacketLost(TrackNetem, 1200, "loss")
	r.PacketDelivered(1200)
	r.QueueDepth("pacer", 0, 0)
	r.VBVState(0, 1)
	r.KeyframeSuppressed(3)
	r.PLISent()
	r.FeedbackReceived(10, 1)
	r.Count("x", 1)
	r.SetGauge("y", 2)
	if r.Enabled() {
		t.Fatal("nil recorder reports Enabled")
	}
	if r.Len() != 0 {
		t.Fatal("nil recorder reports events")
	}
	if got := r.Counters(); got != nil {
		t.Fatalf("nil recorder counters = %v", got)
	}
	tr := r.Snapshot()
	if len(tr.Events) != 0 || len(tr.Counters) != 0 || tr.DroppedEvents != 0 {
		t.Fatalf("nil recorder snapshot not empty: %+v", tr)
	}
}

func TestRecorderStampsVirtualTime(t *testing.T) {
	sched := simtime.NewScheduler()
	r := NewRecorder(0)
	r.SetClock(sched)
	r.PLISent() // before any event fires: t=0
	sched.At(250*time.Millisecond, func() {
		r.EstimateUpdated(8e5, "overuse", 40*time.Millisecond, 0.01, 7e5)
	})
	sched.Run()
	tr := r.Snapshot()
	if len(tr.Events) != 2 {
		t.Fatalf("got %d events, want 2", len(tr.Events))
	}
	if tr.Events[0].At != 0 || tr.Events[0].Kind != KindPLISent {
		t.Fatalf("event 0 = %s", FormatEvent(tr.Events[0]))
	}
	ev := tr.Events[1]
	if ev.At != 250*time.Millisecond {
		t.Fatalf("event stamped %v, want 250ms", ev.At)
	}
	if ev.Seq != 1 || ev.Track != TrackCC || ev.Kind != KindEstimateUpdated {
		t.Fatalf("event = %s", FormatEvent(ev))
	}
	if ev.Attrs[0].Key != "target" || ev.Attrs[0].Num != 8e5 {
		t.Fatalf("first attr = %+v", ev.Attrs[0])
	}
	if ev.Attrs[1].Value() != "overuse" {
		t.Fatalf("usage attr = %+v", ev.Attrs[1])
	}
}

func TestRingEvictsOldest(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.FrameDropped(i)
	}
	tr := r.Snapshot()
	if len(tr.Events) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(tr.Events))
	}
	if tr.DroppedEvents != 6 {
		t.Fatalf("dropped = %d, want 6", tr.DroppedEvents)
	}
	// Oldest evicted first: the survivors are the last four emissions, in
	// emission order.
	for i, ev := range tr.Events {
		if want := uint64(6 + i); ev.Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestCountersSortedAndAccumulated(t *testing.T) {
	r := NewRecorder(0)
	r.Count("zeta", 1)
	r.Count("alpha", 2)
	r.Count("zeta", 3)
	r.SetGauge("mid", 7)
	r.SetGauge("mid", 9)
	got := r.Counters()
	want := []Counter{{"alpha", 2}, {"mid", 9}, {"zeta", 4}}
	if len(got) != len(want) {
		t.Fatalf("counters = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("counter %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	r := NewRecorder(0)
	r.PLISent()
	tr := r.Snapshot()
	r.PLISent()
	if len(tr.Events) != 1 {
		t.Fatal("snapshot grew after later emissions")
	}
	tr.Events[0].Track = "mutated"
	if r.Snapshot().Events[0].Track != TrackSession {
		t.Fatal("mutating a snapshot reached the recorder")
	}
}

// BenchmarkEmitDisabled measures the tap cost when recording is off: the
// nil-receiver early return that the hot path pays per event site.
func BenchmarkEmitDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.PacketSent(uint32(i), 1200)
	}
}

// BenchmarkEmitEnabled measures the live recording cost per event.
func BenchmarkEmitEnabled(b *testing.B) {
	r := NewRecorder(1 << 12)
	r.SetClock(simtime.NewScheduler())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.PacketSent(uint32(i), 1200)
	}
}

// TestQueueDepthGaugeNames pins the gauge keys QueueDepth writes: the
// session's two queues use constant keys, and any other queue name keeps
// the same "queue.<name>.bytes" spelling.
func TestQueueDepthGaugeNames(t *testing.T) {
	r := NewRecorder(0)
	r.QueueDepth("pacer", 100, 0)
	r.QueueDepth("link", 200, 0)
	r.QueueDepth("audio", 300, 0)
	want := []Counter{{"queue.audio.bytes", 300}, {"queue.link.bytes", 200}, {"queue.pacer.bytes", 100}}
	got := r.Counters()
	if len(got) != len(want) {
		t.Fatalf("counters = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("counter %d = %v, want %v", i, got[i], want[i])
		}
	}
	if n := testing.AllocsPerRun(100, func() { r.QueueDepth("link", 200, 0) }); n > 1 {
		// The event's attribute slice is the one allocation left.
		t.Errorf("QueueDepth allocates %.1f per call", n)
	}
}
