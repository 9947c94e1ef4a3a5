package pacer

import (
	"testing"

	"rtcadapt/internal/simtime"
)

// TestPacerZeroAlloc is the alloc-budget gate for the pacer hot path:
// once the queue ring and the scheduler's record pool are warm, enqueuing
// a burst of packets and pumping them all onto the wire allocates
// nothing. Every pump reschedules itself, so a closure or a method value
// handed to the scheduler there costs one allocation per packet.
func TestPacerZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	s := simtime.NewScheduler()
	sent := 0
	p := New(s, Config{Rate: 1e6}, func(any, int) { sent++ })
	// A pointer payload converts to any without allocating.
	payload := new(int)
	burst := func() {
		for i := 0; i < 16; i++ {
			p.Enqueue(payload, 1200)
		}
		s.Run()
	}
	for i := 0; i < 8; i++ {
		burst()
	}
	if got := testing.AllocsPerRun(100, burst); got != 0 {
		t.Fatalf("enqueuing and pumping 16 packets allocates %.1f/run, budget 0", got)
	}
	if sent == 0 {
		t.Fatal("no packet sent; gate measured nothing")
	}
}
