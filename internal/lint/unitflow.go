package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// UnitFlow is the suite's one unit check. It infers a unit for every
// const, field, param, and local it can — from declared internal/units
// types (Bits, Bytes, BitsPerSec) and from the name-suffix convention —
// and propagates the inference through assignments, additive arithmetic,
// composite literals, and call boundaries over the shared memoized
// Program. A quantity that loses its suffixed name two assignments before
// the buggy expression is still caught, and so is the one-line classic
// (`targetKbps = estimateBps` is off by 1000x and crashes nothing).
//
// Recognized suffix families (repo convention: "Bps" means bits per
// second, matching trace.Point.Bps; "KBps"/"MBps" mean bytes per second):
//
//	data rate: bps/Bps, Kbps/kbps, Mbps/mbps, Gbps/gbps, KBps, MBps
//	data size: Bits/bits, Bytes/bytes
//	time:      Ns/ns, Us/us, Ms/ms, Sec/Secs/Seconds (and _sec forms)
//
// Suffixes differing only in scale within one family (Ms vs Sec) and
// suffixes from different families (Ms vs Kbps) are both mismatches.
//
// Flagged (see DESIGN.md §13 for the lattice and conventions):
//
//   - mixed-unit + / - / comparisons (bits meeting bytes, ms meeting
//     seconds, a rate meeting a size);
//   - assignments, declarations, struct literal fields, and call
//     arguments whose inferred units disagree;
//   - multiplying two united quantities — the result's unit is outside
//     the lattice, so the product must go through a conversion helper
//     (units.BitsPerSec.Scale, DurationToSend, Over) or an explicit
//     float64() laundering point;
//   - a bare non-zero numeric literal meeting a units-typed operand in
//     arithmetic or a comparison (`rate / 1e6`): dress the constant with
//     a units constructor or use an accessor (Mbps(), Kbps()).
//
// float64(x) and other conversions to plain basic types deliberately
// erase the unit — they are the sanctioned laundering points — and the
// internal/units package itself is exempt (it is where the raw
// arithmetic must live). Untyped constants adopting a unit type in an
// assignment or composite literal (Rate: 1e6) are dressed, not bare.
var UnitFlow = &Analyzer{
	Name: "unitflow",
	Doc: "infer units from internal/units types and name suffixes, propagate through " +
		"assignments/calls, and flag mixed-unit arithmetic and undressed literals",
	Run: runUnitFlow,
}

// unit is a dimension plus a scale within that dimension (bits for data,
// nanoseconds for time). Two units are compatible only if identical.
type unit struct {
	dim    string
	scale  float64
	pretty string
}

// unitSuffixes is ordered longest-first so "Kbps" wins over "bps" and
// "MBps" over "Bps".
var unitSuffixes = []struct {
	text string
	unit unit
}{
	{"Seconds", unit{"time", 1e9, "seconds"}},
	{"seconds", unit{"time", 1e9, "seconds"}},
	{"Bytes", unit{"size", 8, "bytes"}},
	{"bytes", unit{"size", 8, "bytes"}},
	{"Bits", unit{"size", 1, "bits"}},
	{"bits", unit{"size", 1, "bits"}},
	{"Secs", unit{"time", 1e9, "seconds"}},
	{"secs", unit{"time", 1e9, "seconds"}},
	{"Kbps", unit{"rate", 1e3, "kilobits/s"}},
	{"kbps", unit{"rate", 1e3, "kilobits/s"}},
	{"Mbps", unit{"rate", 1e6, "megabits/s"}},
	{"mbps", unit{"rate", 1e6, "megabits/s"}},
	{"Gbps", unit{"rate", 1e9, "gigabits/s"}},
	{"gbps", unit{"rate", 1e9, "gigabits/s"}},
	{"KBps", unit{"rate", 8e3, "kilobytes/s"}},
	{"MBps", unit{"rate", 8e6, "megabytes/s"}},
	{"Sec", unit{"time", 1e9, "seconds"}},
	{"sec", unit{"time", 1e9, "seconds"}},
	{"Bps", unit{"rate", 1, "bits/s"}},
	{"bps", unit{"rate", 1, "bits/s"}},
	{"Ns", unit{"time", 1, "nanoseconds"}},
	{"ns", unit{"time", 1, "nanoseconds"}},
	{"Us", unit{"time", 1e3, "microseconds"}},
	{"us", unit{"time", 1e3, "microseconds"}},
	{"Ms", unit{"time", 1e6, "milliseconds"}},
	{"ms", unit{"time", 1e6, "milliseconds"}},
}

// suffixUnit extracts the unit suffix of an identifier name, if any. An
// uppercase-initial suffix matches at a camelCase or snake_case boundary
// ("delayMs", "delay_Ms"); a lowercase-initial suffix only after an
// underscore ("delay_ms"), so ordinary words ("alarms", "orbits") never
// match.
func suffixUnit(name string) (unit, string, bool) {
	for _, s := range unitSuffixes {
		t := s.text
		if len(name) < len(t) || name[len(name)-len(t):] != t {
			continue
		}
		if len(name) == len(t) {
			return s.unit, t, true
		}
		prev := name[len(name)-len(t)-1]
		upperInitial := t[0] >= 'A' && t[0] <= 'Z'
		if upperInitial {
			if prev == '_' || (prev >= 'a' && prev <= 'z') || (prev >= '0' && prev <= '9') {
				return s.unit, t, true
			}
		} else if prev == '_' {
			return s.unit, t, true
		}
	}
	return unit{}, "", false
}

// unitFinding is one computed violation bucketed by owning package.
type unitFinding struct {
	pos token.Pos
	msg string
}

// unitFlowResult is the memoized whole-program analysis.
type unitFlowResult struct {
	byPkg map[string][]unitFinding
}

func runUnitFlow(pass *Pass) {
	prog := pass.Prog
	if prog == nil {
		return
	}
	if prog.unitFlow == nil {
		prog.unitFlow = computeUnitFlow(prog)
	}
	for _, f := range prog.unitFlow.byPkg[pass.Path] {
		pass.Reportf(f.pos, "%s", f.msg)
	}
}

// unitsPkgName is the package whose named types declare units and whose
// own body is exempt from unitflow (the helpers' raw arithmetic lives
// there).
const unitsPkgName = "units"

// declaredUnit maps a named type from the units package to its unit.
func declaredUnit(t types.Type) (unit, bool) {
	named, ok := t.(*types.Named)
	if !ok {
		return unit{}, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Name() != unitsPkgName {
		return unit{}, false
	}
	switch obj.Name() {
	case "Bits":
		return unit{"size", 1, "bits"}, true
	case "Bytes":
		return unit{"size", 8, "bytes"}, true
	case "BitsPerSec":
		return unit{"rate", 1, "bits/s"}, true
	}
	return unit{}, false
}

// unitInference is the whole-module unit map.
type unitInference struct {
	of      map[types.Object]unit
	module  map[*types.Package]bool
	changed bool
}

// moduleFunc reports whether fn is declared inside the loaded module.
// Units never flow into or out of external parameters: stdlib sinks like
// fmt.Printf and strconv.FormatFloat are unit-agnostic by design, and
// letting every call site pile units onto their parameters would conflate
// unrelated quantities.
func (inf *unitInference) moduleFunc(fn *types.Func) bool {
	return fn != nil && inf.module[fn.Pkg()]
}

// objUnit returns the inferred unit of an object.
func (inf *unitInference) objUnit(obj types.Object) (unit, bool) {
	if obj == nil {
		return unit{}, false
	}
	u, ok := inf.of[obj]
	return u, ok
}

// objOf resolves an lvalue-ish expression to its object: an identifier or
// the field of a selector.
func objOf(info *types.Info, e ast.Expr) types.Object {
	switch v := unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Defs[v]; obj != nil {
			return obj
		}
		return info.Uses[v]
	case *ast.SelectorExpr:
		return info.Uses[v.Sel]
	}
	return nil
}

// setUnit records an inference; first inference wins (seeds run before
// propagation, declared types before suffixes), conflicts surface in the
// report pass at the expression that mixes them.
func (inf *unitInference) setUnit(obj types.Object, u unit) {
	if obj == nil {
		return
	}
	if _, ok := inf.of[obj]; ok {
		return
	}
	inf.of[obj] = u
	inf.changed = true
}

// exprUnit computes the unit of an expression under the current
// inference. Conversions to plain basic types (float64(x)) launder the
// unit; additive arithmetic preserves a unit only when both operands
// agree; multiplication and division always destroy it (scale changes).
func (inf *unitInference) exprUnit(info *types.Info, e ast.Expr) (unit, bool) {
	if t := info.TypeOf(e); t != nil {
		if u, ok := declaredUnit(t); ok {
			return u, true
		}
	}
	switch v := unparen(e).(type) {
	case *ast.Ident:
		return inf.objUnit(objOf(info, v))
	case *ast.SelectorExpr:
		return inf.objUnit(objOf(info, v))
	case *ast.UnaryExpr:
		if v.Op == token.ADD || v.Op == token.SUB {
			return inf.exprUnit(info, v.X)
		}
	case *ast.BinaryExpr:
		if v.Op == token.ADD || v.Op == token.SUB {
			ux, okx := inf.exprUnit(info, v.X)
			uy, oky := inf.exprUnit(info, v.Y)
			if okx && oky && ux == uy {
				return ux, true
			}
		}
	case *ast.CallExpr:
		if tv, ok := info.Types[v.Fun]; ok && tv.IsType() {
			return unit{}, false // conversion to a non-unit type launders
		}
		// A call to a suffix-named function or accessor (Seconds(),
		// Kbps()) yields a value denominated in that suffix's unit.
		switch fun := unparen(v.Fun).(type) {
		case *ast.Ident:
			if u, _, ok := suffixUnit(fun.Name); ok {
				return u, true
			}
		case *ast.SelectorExpr:
			if u, _, ok := suffixUnit(fun.Sel.Name); ok {
				return u, true
			}
		}
	}
	return unit{}, false
}

// computeUnitFlow seeds, propagates to fixpoint, then reports, all in
// deterministic package/file order.
func computeUnitFlow(prog *Program) *unitFlowResult {
	inf := &unitInference{
		of:     make(map[types.Object]unit),
		module: make(map[*types.Package]bool, len(prog.Pkgs)),
	}
	for _, pkg := range prog.Pkgs {
		if pkg.Types != nil {
			inf.module[pkg.Types] = true
		}
	}

	// Seeds: declared unit types win, then the suffix convention on any
	// numeric object.
	for _, pkg := range prog.Pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, obj := range pkg.Info.Defs {
			switch obj.(type) {
			case *types.Var, *types.Const:
			default:
				continue
			}
			if u, ok := declaredUnit(obj.Type()); ok {
				inf.of[obj] = u
				continue
			}
			if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsNumeric != 0 {
				if u, _, ok := suffixUnit(obj.Name()); ok {
					inf.of[obj] = u
				}
			}
		}
	}

	for round := 0; round < 32; round++ {
		inf.changed = false
		for _, pkg := range prog.Pkgs {
			if pkg.Info == nil {
				continue
			}
			for _, f := range pkg.Files {
				inf.propagateFile(pkg.Info, f)
			}
		}
		if !inf.changed {
			break
		}
	}

	res := &unitFlowResult{byPkg: make(map[string][]unitFinding)}
	for _, pkg := range prog.Pkgs {
		if pkg.Info == nil || pkg.Types.Name() == unitsPkgName {
			continue
		}
		for _, f := range pkg.Files {
			inf.reportFile(res, pkg, f)
		}
	}
	return res
}

// propagateFile pushes units through one file's assignments, composite
// literals, and call arguments.
func (inf *unitInference) propagateFile(info *types.Info, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i := range n.Lhs {
				if u, ok := inf.exprUnit(info, n.Rhs[i]); ok {
					inf.setUnit(objOf(info, n.Lhs[i]), u)
				}
			}
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != len(vs.Values) {
					continue
				}
				for i := range vs.Names {
					if u, ok := inf.exprUnit(info, vs.Values[i]); ok {
						inf.setUnit(info.Defs[vs.Names[i]], u)
					}
				}
			}
		case *ast.KeyValueExpr:
			if key, ok := n.Key.(*ast.Ident); ok {
				if field := info.Uses[key]; field != nil {
					if u, ok := inf.exprUnit(info, n.Value); ok {
						inf.setUnit(field, u)
					}
				}
			}
		case *ast.CallExpr:
			inf.propagateCall(info, n)
		}
		return true
	})
}

// propagateCall pushes argument units onto callee parameters.
func (inf *unitInference) propagateCall(info *types.Info, call *ast.CallExpr) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	callee := staticCallee(info, call)
	if !inf.moduleFunc(callee) {
		return
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		// The variadic tail collects arbitrarily many arguments into one
		// parameter object; unrelated call sites would conflate there.
		if sig.Variadic() && i >= params.Len()-1 {
			break
		}
		if i >= params.Len() {
			break
		}
		if u, ok := inf.exprUnit(info, arg); ok {
			inf.setUnit(params.At(i), u)
		}
	}
}

// staticCallee resolves the single static target of a call, nil for
// closures, builtins, and interface calls.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// bareLiteral returns the constant value of a bare numeric literal
// (optionally under unary minus), or nil.
func bareLiteral(info *types.Info, e ast.Expr) constant.Value {
	switch v := unparen(e).(type) {
	case *ast.BasicLit:
		if tv, ok := info.Types[v]; ok && tv.Value != nil {
			return tv.Value
		}
	case *ast.UnaryExpr:
		if v.Op == token.SUB || v.Op == token.ADD {
			return bareLiteral(info, v.X)
		}
	}
	return nil
}

// reportFile checks one file's expressions against the inference.
func (inf *unitInference) reportFile(res *unitFlowResult, pkg *Package, f *ast.File) {
	info := pkg.Info
	report := func(pos token.Pos, format string, args ...any) {
		res.byPkg[pkg.Path] = append(res.byPkg[pkg.Path],
			unitFinding{pos: pos, msg: fmt.Sprintf(format, args...)})
	}
	checkAssign := func(pos token.Pos, context string, lhs, rhs ast.Expr) {
		lu, lok := inf.exprUnit(info, lhs)
		ru, rok := inf.exprUnit(info, rhs)
		if lok && rok && lu != ru {
			report(pos, "unit mismatch in %s: %s is %s but %s is %s; convert through internal/units",
				context, types.ExprString(lhs), lu.pretty, types.ExprString(rhs), ru.pretty)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			switch n.Tok {
			case token.ASSIGN, token.DEFINE, token.ADD_ASSIGN, token.SUB_ASSIGN:
				for i := range n.Lhs {
					checkAssign(n.Rhs[i].Pos(), "assignment", n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					checkAssign(n.Values[i].Pos(), "declaration", n.Names[i], n.Values[i])
				}
			}
		case *ast.KeyValueExpr:
			// Struct literal fields only: a map literal's key and value
			// are different quantities.
			if key, ok := n.Key.(*ast.Ident); ok {
				if field, ok := info.Uses[key].(*types.Var); ok && field.IsField() {
					checkAssign(n.Value.Pos(), "composite literal field", key, n.Value)
				}
			}
		case *ast.BinaryExpr:
			inf.checkBinary(info, n, report)
		case *ast.CallExpr:
			inf.checkCall(info, n, report)
		}
		return true
	})
}

// checkBinary applies the mixed-unit, unit-destroying-multiply, and
// bare-literal rules to one binary expression.
func (inf *unitInference) checkBinary(info *types.Info, n *ast.BinaryExpr, report func(token.Pos, string, ...any)) {
	ux, okx := inf.exprUnit(info, n.X)
	uy, oky := inf.exprUnit(info, n.Y)
	switch n.Op {
	case token.ADD, token.SUB, token.EQL, token.NEQ,
		token.LSS, token.LEQ, token.GTR, token.GEQ:
		if okx && oky && ux != uy {
			report(n.OpPos, "unit mismatch in %s expression: %s is %s but %s is %s; convert through internal/units",
				n.Op, types.ExprString(n.X), ux.pretty, types.ExprString(n.Y), uy.pretty)
			return
		}
	case token.MUL:
		// Fires only when a declared units type is involved: suffix-named
		// plain floats (bps, segSec) are the sanctioned scratch domain a
		// float64() laundering already opted into.
		_, dx := declaredUnit(info.TypeOf(n.X))
		_, dy := declaredUnit(info.TypeOf(n.Y))
		if okx && oky && (dx || dy) {
			report(n.OpPos, "multiplying %s (%s) by %s (%s) destroys the unit; use a conversion helper "+
				"(units.BitsPerSec.Scale/DurationToSend/Over) or launder explicitly with float64()",
				types.ExprString(n.X), ux.pretty, types.ExprString(n.Y), uy.pretty)
			return
		}
	}
	// Bare literal meeting a declared units-typed operand. Zero is exempt
	// (sign and emptiness checks are dimensionally harmless), as are
	// dressed constants in assignments and composite literals.
	switch n.Op {
	case token.ADD, token.SUB, token.MUL, token.QUO,
		token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		for _, pair := range [2][2]ast.Expr{{n.X, n.Y}, {n.Y, n.X}} {
			typed, other := pair[0], pair[1]
			u, isUnit := declaredUnit(info.TypeOf(typed))
			if !isUnit || bareLiteral(info, typed) != nil {
				continue
			}
			lit := bareLiteral(info, other)
			if lit == nil || constant.Sign(lit) == 0 {
				continue
			}
			report(other.Pos(), "bare numeric literal %s meets %s-typed %s in %s expression; "+
				"dress it with a units constructor or use an accessor (Kbps/Mbps/Scale)",
				types.ExprString(other), u.pretty, types.ExprString(typed), n.Op)
		}
	}
}

// checkCall compares inferred argument units against inferred parameter
// units.
func (inf *unitInference) checkCall(info *types.Info, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	callee := staticCallee(info, call)
	if !inf.moduleFunc(callee) {
		return
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if sig.Variadic() && i >= params.Len()-1 {
			break
		}
		if i >= params.Len() {
			break
		}
		p := params.At(i)
		pu, pok := inf.objUnit(p)
		au, aok := inf.exprUnit(info, arg)
		if !pok || !aok || pu == au {
			continue
		}
		report(arg.Pos(), "unit mismatch in call to %s: argument %s is %s but parameter %q is %s; convert through internal/units",
			callee.Name(), types.ExprString(arg), au.pretty, p.Name(), pu.pretty)
	}
}
