package lint

import "strings"

// globalMutAllow is the single source of truth for sanctioned
// package-level mutable state, mirroring layers.go for the import DAG.
// Keys are either "pkg.Var" (one variable) or "pkg" (the whole package);
// values are the reason, which doubles as documentation. Every entry must
// say why the state cannot race across shards. An entry that stops
// matching anything is dead weight — prune it when the variable goes
// away.
var globalMutAllow = map[string]string{
	// The lint package itself is tooling, never linked into a simulation
	// shard; its analyzer registrations (var FloatEq = &Analyzer{...})
	// are write-once pointers by construction.
	"internal/lint": "analyzer registry: tooling package, never part of a simulation shard",

	// Fixture hook so the // want tests can exercise the allowlist path
	// with a real entry rather than a mocked lookup.
	"internal/globalmutfix.allowed": "fixture: exercises the allowlist path in globalmut tests",
}

// globalMutAllowed looks up a variable against the allowlist: exact
// "pkg.Var" entries win, then package-wide "pkg" entries.
func globalMutAllowed(rel, varName string) (reason string, ok bool) {
	if r, ok := globalMutAllow[rel+"."+varName]; ok {
		return r, true
	}
	if r, ok := globalMutAllow[rel]; ok {
		return r, true
	}
	return "", false
}

// init sanity-checks the allowlist shape so a malformed entry fails every
// lint run loudly instead of silently never matching.
func init() {
	for key := range globalMutAllow {
		if strings.Contains(key, " ") {
			panic("globalMutAllow key contains a space: " + key)
		}
	}
}
