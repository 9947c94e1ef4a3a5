// Package clockfix is a lint fixture: wall-clock uses that
// transitivepurity's per-site walk must flag in an internal package no
// entry point reaches, plus virtual-time uses it must not.
package clockfix

import (
	"time"

	wall "time"
)

// started sits in a package-level initializer, which the call graph
// attributes to no function: only the per-site walk sees it.
var started = time.Now() // want `wall-clock time\.Now in internal package`

func bad() time.Time {
	t := time.Now()              // want `wall-clock time\.Now`
	time.Sleep(time.Millisecond) // want `wall-clock time\.Sleep`
	<-time.After(time.Second)    // want `wall-clock time\.After`
	return t
}

func badRenamedImport() time.Duration {
	return wall.Since(wall.Now()) // want `wall-clock time\.Since` `wall-clock time\.Now`
}

func badTicker() *time.Ticker {
	return time.NewTicker(time.Second) // want `wall-clock time\.NewTicker`
}

func good() time.Duration {
	d := 5 * time.Millisecond // Duration arithmetic never touches the clock
	return d + time.Second
}

func goodParse() (time.Time, error) {
	return time.Parse(time.RFC3339, "2020-01-01T00:00:00Z") // formatting is allowed
}
