// Package ignorefix is a lint fixture for the //lint:ignore escape hatch:
// suppressed findings must vanish, unsuppressed ones must survive, and a
// directive for one analyzer must not silence another. The directive on
// the package clause suppresses importlayer's unplaced-package finding,
// exercising the directive-above-line path for package-level findings.
//
//lint:ignore importlayer fixture tree is deliberately outside the production layer table
package ignorefix

import "time"

func suppressedSameLine() time.Time {
	return time.Now() //lint:ignore transitivepurity fixture exercises same-line suppression
}

func suppressedLineAbove() {
	//lint:ignore transitivepurity fixture exercises previous-line suppression
	time.Sleep(time.Millisecond)
}

func unsuppressed() time.Time {
	return time.Now() // want `wall-clock time\.Now`
}

func wrongAnalyzer(a, b float64) bool {
	//lint:ignore transitivepurity directive names the wrong analyzer
	return a == b // want `== between floating-point operands`
}
