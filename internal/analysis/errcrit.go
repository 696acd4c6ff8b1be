package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// NewErrCrit returns the analyzer that flags discarded error returns from
// any function or method declared in the module rooted at modulePath:
// engine runs, REST installs, the validator wire path, trace exports and
// every other module API, where a swallowed error silently invalidates an
// experiment. A function belongs to the module when its package path is
// modulePath or begins with modulePath + "/". Methods on instantiated
// generic types are matched through (*types.Func).Origin, so the
// declaring package is recovered whatever the type arguments.
//
// Both bare call statements and blank-identifier assignments (`_ = f()`,
// `x, _ := f()`) count as discards. The one exemption is a method named
// Close that takes no arguments: shutdown is best-effort. Deliberate
// best-effort call sites carry a //jurylint:allow errcrit annotation with
// a justification.
func NewErrCrit(modulePath string) *Analyzer {
	return &Analyzer{
		Name: "errcrit",
		Doc:  "flags discarded error returns from the module's own functions and methods",
		Run:  func(pass *Pass) { runErrCrit(pass, modulePath) },
	}
}

func runErrCrit(pass *Pass, modulePath string) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDiscard(pass, modulePath, call)
				}
			case *ast.AssignStmt:
				// `_ = f()` or `a, _ := f()` with the error position blank.
				if len(n.Rhs) != 1 {
					return true
				}
				call, ok := n.Rhs[0].(*ast.CallExpr)
				if !ok || len(n.Lhs) == 0 {
					return true
				}
				if isBlank(n.Lhs[len(n.Lhs)-1]) {
					checkDiscard(pass, modulePath, call)
				}
			}
			return true
		})
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func checkDiscard(pass *Pass, modulePath string, call *ast.CallExpr) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return
	}
	fn, ok := pass.Info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	fn = fn.Origin()
	if fn.Pkg() == nil || !inModule(fn.Pkg().Path(), modulePath) {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !lastResultIsError(sig) {
		return
	}
	if fn.Name() == "Close" && sig.Recv() != nil && sig.Params().Len() == 0 {
		return
	}
	pass.Reportf(call.Pos(), "error returned by %s is discarded; handle it or annotate the deliberate discard", fn.FullName())
}

func inModule(pkgPath, modulePath string) bool {
	return pkgPath == modulePath || strings.HasPrefix(pkgPath, modulePath+"/")
}

func lastResultIsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	named, ok := res.At(res.Len() - 1).Type().(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
