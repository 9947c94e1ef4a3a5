package lint

import "strings"

// This file is the single source of truth for the module's import
// architecture. The importlayer analyzer enforces it; nothing else
// needs to change when a package moves layers.
//
//	main         cmd/...  examples/...
//	  |
//	api          .  (package rtcadapt)
//	  |
//	tooling      internal/lint
//	  |
//	measurement  internal/cli  internal/experiments  internal/fleet  internal/plot
//	  |
//	harness      internal/session  internal/sfu
//	  |
//	engine       internal/core
//	  |
//	model        internal/cc  internal/codec  internal/fec
//	  |          internal/netem  internal/pacer  internal/rtp
//	  |          internal/scenario  internal/video
//	  |
//	data         internal/audio  internal/fb  internal/metrics
//	  |          internal/obs  internal/trace
//	  |
//	foundation   internal/simtime  internal/stats  internal/units
//
// A package may import module packages from strictly lower layers, plus
// (where AllowIntra is set) siblings in its own layer. In particular:
// model packages can never see the session harness, the experiment
// drivers, or plotting; internal/... can never import cmd/...; and the
// foundation layer imports nothing module-internal, which pins simtime —
// the module's only clock authority — at the root of the DAG (transitivepurity
// forbids every other clock source).

// Layer is one stratum of the module's import DAG.
type Layer struct {
	// Name labels the layer in diagnostics.
	Name string
	// Pkgs are module-relative import paths ("internal/codec", "." for
	// the module root). A trailing "/..." entry matches every package
	// in that subtree ("cmd/...").
	Pkgs []string
	// AllowIntra permits imports between packages of this layer.
	AllowIntra bool
}

// LayerTable is the module's import DAG, lowest layer first. Every
// module package must appear in exactly one layer; importlayer reports
// packages the table does not place.
var LayerTable = []Layer{
	{Name: "foundation", Pkgs: []string{"internal/simtime", "internal/stats", "internal/units"}},
	{Name: "data", Pkgs: []string{"internal/audio", "internal/fb", "internal/metrics", "internal/obs", "internal/trace"}},
	{Name: "model", AllowIntra: true, Pkgs: []string{"internal/cc", "internal/codec", "internal/fec", "internal/netem", "internal/pacer", "internal/rtp", "internal/scenario", "internal/video"}},
	{Name: "engine", Pkgs: []string{"internal/core"}},
	{Name: "harness", AllowIntra: true, Pkgs: []string{"internal/session", "internal/sfu"}},
	{Name: "measurement", AllowIntra: true, Pkgs: []string{"internal/cli", "internal/experiments", "internal/fleet", "internal/plot"}},
	{Name: "tooling", Pkgs: []string{"internal/lint"}},
	{Name: "api", Pkgs: []string{"."}},
	{Name: "main", Pkgs: []string{"cmd/...", "examples/..."}},
}

// layerOf returns the index and layer of the module-relative package
// path rel, or ok=false when the table does not place it.
func layerOf(rel string) (int, *Layer, bool) {
	for i := range LayerTable {
		l := &LayerTable[i]
		for _, p := range l.Pkgs {
			if p == rel {
				return i, l, true
			}
			if sub, isTree := strings.CutSuffix(p, "/..."); isTree {
				if rel == sub || strings.HasPrefix(rel, sub+"/") {
					return i, l, true
				}
			}
		}
	}
	return 0, nil, false
}
