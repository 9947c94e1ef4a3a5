// Package scopecheck is a lint fixture that lives OUTSIDE any internal/
// or cmd/ tree and that no entry point reaches: transitivepurity and
// errdrop must stay silent here even though it uses the wall clock, the
// global RNG, a raw goroutine, and a discarded error.
package scopecheck

import (
	"errors"
	"math/rand"
	"time"
)

func wallClockElapsed() time.Duration {
	start := time.Now()
	time.Sleep(time.Millisecond)
	return time.Since(start)
}

func globalDraw() float64 {
	return rand.Float64()
}

func spawn(done chan struct{}) {
	go func() { done <- struct{}{} }()
}

func mayFail() error { return errors.New("boom") }

func ignoresError() {
	mayFail()
}
