package lint

import (
	"strconv"
	"strings"
)

// ImportLayer enforces the layered import DAG declared in layers.go
// (LayerTable). The invariants it machine-checks are the ones that keep
// the reproduction's model separable from its measurement harness: model
// packages (codec, cc, netem, video, fec, rtp, pacer) never import the
// session harness, the experiment drivers, or plotting; internal/...
// never imports cmd/...; and the foundation layer — simtime, the sole
// clock authority, and stats — imports nothing module-internal.
//
// Only module-internal imports are checked; the standard library is
// always allowed (wall-clock use is transitivepurity's job). A module package
// missing from the table is itself a finding, so the table cannot
// silently drift from the tree.
var ImportLayer = &Analyzer{
	Name: "importlayer",
	Doc: "enforce the layered import DAG from internal/lint/layers.go; " +
		"model packages must not import harness/measurement layers",
	Run: runImportLayer,
}

func runImportLayer(pass *Pass) {
	rel := pass.Rel()
	fromIdx, fromLayer, ok := layerOf(rel)
	if !ok {
		if len(pass.Files) > 0 {
			pass.Reportf(pass.Files[0].Name.Pos(),
				"package %s is not assigned to a layer in internal/lint/layers.go", rel)
		}
		return
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			target, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if target != pass.Module && !strings.HasPrefix(target, pass.Module+"/") {
				continue // standard library or external: not a layer concern
			}
			targetRel := relPath(pass.Module, target)
			toIdx, toLayer, ok := layerOf(targetRel)
			if !ok {
				// The imported package's own pass reports the missing
				// table entry; don't double-report here.
				continue
			}
			switch {
			case toIdx < fromIdx:
				// Downward import: allowed.
			case toIdx == fromIdx && fromLayer.AllowIntra && targetRel != rel:
				// Sibling import inside an intra-permissive layer.
			default:
				pass.Reportf(imp.Pos(),
					"package %s (layer %s) must not import %s (layer %s); the import DAG in internal/lint/layers.go only allows downward imports",
					rel, fromLayer.Name, targetRel, toLayer.Name)
			}
		}
	}
}
