package lint

import (
	"go/ast"

	"golang.org/x/tools/go/analysis"
)

// RecoverGuard mechanizes the PR 10 panic-isolation contract. Functions
// whose doc comment carries //fastmatch:recoverbarrier are the pipeline's
// recover barriers — the places a worker panic is converted into a typed
// error instead of killing the process (host.runKernel, host.enumerateShare,
// host.pipeline.produce). The analyzer keeps the directive honest and catches
// the two ways a barrier quietly stops working:
//
//   - a marked function must actually contain a deferred function literal
//     that calls recover() — refactoring the barrier away while leaving the
//     directive (and the callers' assumptions) behind is reported;
//   - a recover() inside a function literal that is not directly deferred
//     is a no-op (the runtime only honours recover called directly by a
//     deferred function), which is how a barrier silently becomes a crash;
//   - a bare `recover()` expression statement discards the panic value,
//     swallowing the failure with no record — barriers must convert the
//     value into an error or re-throw, never drop it.
var RecoverGuard = &analysis.Analyzer{
	Name: "recoverguard",
	Doc:  "check //fastmatch:recoverbarrier functions really install a recover barrier, and flag no-op or silent recover() calls",
	Run:  runRecoverGuard,
}

func runRecoverGuard(pass *analysis.Pass) (any, error) {
	sup := newSuppressor(pass)
	for _, f := range pass.Files {
		// Marked functions must contain a working barrier.
		for _, d := range directivesIn(f) {
			if d.verb != "recoverbarrier" || d.fn == nil {
				continue
			}
			if d.fn.Body == nil || !hasDeferredRecover(d.fn.Body) {
				reportf(pass, sup, d.fn.Pos(),
					"%s is marked //fastmatch:recoverbarrier but installs no deferred recover(); a panic in it kills the worker", d.fn.Name.Name)
			}
		}
		checkRecoverCalls(pass, sup, f)
	}
	return nil, nil
}

// hasDeferredRecover reports whether body defers a function literal that
// calls recover() directly (not through a further nested literal).
func hasDeferredRecover(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if lit, ok := d.Call.Fun.(*ast.FuncLit); ok && callsRecoverDirectly(lit.Body) {
			found = true
		}
		return true
	})
	return found
}

// callsRecoverDirectly reports whether body calls recover() without an
// intervening function literal (recover in a nested literal belongs to that
// literal's frame, where it would be a no-op unless deferred again).
func callsRecoverDirectly(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // different frame
		case *ast.CallExpr:
			if isRecoverCall(n) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isRecoverCall reports whether call is the builtin recover().
func isRecoverCall(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "recover" && len(call.Args) == 0
}

// checkRecoverCalls walks one file reporting recover() calls that cannot
// work (their function literal is not directly deferred) or that discard
// the panic value (bare expression statement).
func checkRecoverCalls(pass *analysis.Pass, sup *suppressor, f *ast.File) {
	// deferredLits is the set of function literals that are the direct
	// operand of a defer statement — the only frames where recover works.
	deferredLits := map[*ast.FuncLit]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
				deferredLits[lit] = true
			}
		}
		return true
	})

	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		inspectFrame(pass, sup, fd.Body, nil, deferredLits)
	}
}

// inspectFrame scans one function frame. lit is the frame's literal (nil
// for a declared function); recursion enters nested literals with their own
// frame so each recover() is judged against its own function.
func inspectFrame(pass *analysis.Pass, sup *suppressor, body *ast.BlockStmt, lit *ast.FuncLit, deferredLits map[*ast.FuncLit]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n != lit {
				inspectFrame(pass, sup, n.Body, n, deferredLits)
				return false
			}
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && isRecoverCall(call) {
				reportf(pass, sup, call.Pos(),
					"recover() result discarded: the panic is swallowed with no record; convert it to an error or re-throw")
				return false
			}
		case *ast.CallExpr:
			if isRecoverCall(n) {
				// Effective only when this frame is a directly deferred
				// literal. Declared functions get the benefit of the doubt:
				// `defer handlePanic()` at the call sites is a legal idiom
				// this file-local analysis cannot see.
				if lit != nil && !deferredLits[lit] {
					reportf(pass, sup, n.Pos(),
						"recover() in a function literal that is not directly deferred is a no-op: the panic continues unwinding")
				}
			}
		}
		return true
	})
}
