// Package randfix is a lint fixture: global math/rand draws that
// transitivepurity's per-site walk must flag, plus seeded constructor uses
// it must not.
package randfix

import "math/rand"

func bad() float64 {
	return rand.Float64() // want `global math/rand\.Float64`
}

func badIntn(n int) int {
	return rand.Intn(n) // want `global math/rand\.Intn`
}

func badShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `global math/rand\.Shuffle`
}

func good(seed int64) float64 {
	r := rand.New(rand.NewSource(seed)) // constructors build private streams
	return r.Float64()                  // methods on an owned *rand.Rand are fine
}
