package netem

import (
	"reflect"
	"testing"
	"time"

	"rtcadapt/internal/simtime"
	"rtcadapt/internal/trace"
)

// TestLinkInitMatchesFresh stops a lossy, jittered link and a batched one
// mid-flight — queue, arrivals and inflight records all occupied — then
// re-initialises each on a new scheduler with another configuration and
// requires it to carry a new stream exactly as a fresh link does: same
// deliveries at the same instants, same counters, same loss and jitter
// draws (the PRNG is reseeded in place), and no payload of the old run
// left in its rings.
func TestLinkInitMatchesFresh(t *testing.T) {
	for _, cfg := range []Config{
		{Trace: trace.MustNew("drop", trace.Point{At: 0, Bps: 2e6}, trace.Point{At: 300 * time.Millisecond, Bps: 5e5}), LossProb: 0.1, JitterAmp: 4 * time.Millisecond, Seed: 7},
		{Trace: trace.Constant(1e6), LossProb: 0.05, Seed: 8},
	} {
		old := simtime.NewScheduler()
		used := NewLink(old, Config{Trace: trace.Constant(8e5), LossProb: 0.2, JitterAmp: cfg.JitterAmp / 4, Seed: 1})
		used.SetReceiver(&collector{})
		for i := 0; i < 80; i++ {
			used.Send(Packet{Size: 1200, Payload: i})
		}
		old.RunUntil(60 * time.Millisecond)

		run := func(l *Link, s *simtime.Scheduler) *collector {
			c := &collector{}
			l.SetReceiver(c)
			for i := 0; i < 200; i++ {
				s.At(time.Duration(i)*3*time.Millisecond, func() { l.Send(Packet{Size: 400 + 5*i, Payload: i}) })
			}
			s.RunUntil(3 * time.Second)
			return c
		}
		s1, s2 := simtime.NewScheduler(), simtime.NewScheduler()
		used.Init(s1, cfg)
		if used.QueueBytes() != 0 || used.queue.len() != 0 || used.arrivals.len() != 0 || used.Stats() != (Stats{}) {
			t.Fatalf("re-initialised link still holds traffic: %+v", used.Stats())
		}
		for _, p := range used.queue.buf {
			if p.Payload != nil {
				t.Fatal("re-initialised link pins a queued payload")
			}
		}
		for _, a := range used.arrivals.buf {
			if a.pkt.Payload != nil {
				t.Fatal("re-initialised link pins an arriving payload")
			}
		}
		got := run(used, s1)
		fresh := NewLink(s2, cfg)
		want := run(fresh, s2)
		if !reflect.DeepEqual(got, want) || used.Stats() != fresh.Stats() {
			t.Fatalf("re-initialised link: %+v, fresh %+v", used.Stats(), fresh.Stats())
		}
	}
}
