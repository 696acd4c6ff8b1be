package analysis

import (
	"go/ast"
	"go/types"
)

// NewMaprange returns the analyzer that flags iteration over maps in
// simulation-driven packages. Go randomizes map iteration order per
// process, so any map range whose effect depends on visit order breaks
// the bit-identical determinism the simnet substrate guarantees — and it
// does so silently, surfacing later as an unreproducible figure.
//
// The canonical deterministic idiom — collect the keys, sort them,
// iterate the sorted slice — is recognized and exempt: a range whose
// body only appends the range key to a slice that is passed to a
// sort/slices sorting call in the same function does not trip the rule.
// Genuinely order-insensitive loops (commutative aggregation such as
// counting, summation, or min/max) carry a //jurylint:allow maprange
// annotation with a justification.
func NewMaprange(packages []string) *Analyzer {
	return &Analyzer{
		Name:     "maprange",
		Packages: packages,
		Run:      runMaprange,
	}
}

func runMaprange(pass *Pass) {
	for _, file := range pass.Files {
		// Walk declaration by declaration so the sorted-keys exemption
		// can search the whole enclosing function for the sort call.
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkMapRanges(pass, fd.Body)
		}
	}
}

func checkMapRanges(pass *Pass, fnBody *ast.BlockStmt) {
	ast.Inspect(fnBody, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.Info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if isSortedKeyCollection(pass, fnBody, rng) {
			return true
		}
		pass.Reportf(rng.Pos(), "map iteration order is randomized; sort the keys first, or annotate a provably order-insensitive loop")
		return true
	})
}

// isSortedKeyCollection reports whether rng is the collection half of the
// sorted-keys idiom: `for k := range m { keys = append(keys, k) }` with
// keys later handed to a sorting call in the same function.
func isSortedKeyCollection(pass *Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt) bool {
	key, ok := rng.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	if rng.Value != nil && !isBlank(rng.Value) {
		return false
	}
	if len(rng.Body.List) != 1 {
		return false
	}
	asn, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asn.Lhs) != 1 || len(asn.Rhs) != 1 {
		return false
	}
	dst, ok := asn.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := asn.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fun, ok := call.Fun.(*ast.Ident)
	if !ok || fun.Name != "append" {
		return false
	}
	if _, isBuiltin := pass.Info.Uses[fun].(*types.Builtin); !isBuiltin {
		return false
	}
	if base, ok := call.Args[0].(*ast.Ident); !ok || base.Name != dst.Name {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	if !ok || pass.Info.Uses[arg] != pass.Info.Defs[key] {
		return false
	}
	dstObj := pass.Info.Uses[dst]
	if dstObj == nil {
		dstObj = pass.Info.Defs[dst]
	}
	return dstObj != nil && sliceIsSorted(pass, fnBody, dstObj)
}

// sortCalls are the sort and slices functions accepted as establishing a
// deterministic order for a collected key slice.
var sortCalls = map[string]bool{
	"Sort": true, "SortFunc": true, "SortStableFunc": true, "Stable": true,
	"Slice": true, "SliceStable": true,
	"Strings": true, "Ints": true, "Float64s": true,
}

func sliceIsSorted(pass *Pass, fnBody *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if path := fn.Pkg().Path(); path != "sort" && path != "slices" {
			return true
		}
		if !sortCalls[fn.Name()] {
			return true
		}
		for _, a := range call.Args {
			if id, ok := a.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
				found = true
			}
		}
		return true
	})
	return found
}
