// Package unitfix is a lint fixture: identifier pairs with mismatched
// unit suffixes that unitflow must flag, plus same-unit and
// explicitly-converted forms it must not.
package unitfix

type link struct {
	rateKbps float64
	rateBps  float64
}

func assign(targetKbps, estimateBps float64) float64 {
	targetKbps = estimateBps // want `unit mismatch in assignment`
	return targetKbps
}

func declare(delayMs float64) float64 {
	var timeoutSec = delayMs // want `unit mismatch in declaration`
	return timeoutSec
}

func define(spanSeconds float64) float64 {
	windowMs := spanSeconds // want `unit mismatch in assignment`
	return windowMs
}

func compare(aMs, bSec float64) bool {
	return aMs < bSec // want `unit mismatch in < expression`
}

func add(xBits, yBytes int) int {
	return xBits + yBytes // want `unit mismatch in \+ expression`
}

func fieldAssign(l *link, budgetMbps float64) {
	l.rateKbps = budgetMbps // want `unit mismatch in assignment`
}

func fieldRead(l *link, floorKbps float64) bool {
	return l.rateBps > floorKbps // want `unit mismatch in > expression`
}

func composite(delaySec float64) link {
	return link{rateBps: delaySec} // want `unit mismatch in composite literal field`
}

func call(windowMs float64) {
	meter(windowMs) // want `unit mismatch in call to meter`
}

func meter(windowSec float64) float64 { return windowSec }

func sameUnit(aKbps, bKbps float64) bool {
	aKbps = bKbps // same unit: fine
	return aKbps > bKbps
}

func converted(rateKbps float64) float64 {
	rateBps := rateKbps * 1000 // arithmetic marks an explicit conversion
	return rateBps
}

func ordinaryWords(alarms, orbits int) int {
	return alarms + orbits // lowercase suffixes need a _ boundary: no match
}

func snakeCase(total_bits, total_bytes int) bool {
	return total_bits == total_bytes // want `unit mismatch in == expression`
}
