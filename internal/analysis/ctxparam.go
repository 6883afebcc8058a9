package wlvet

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// CtxParam enforces the PR 4 context-threading contract: exported
// functions and methods that take a context.Context must take it as
// the first parameter, and library code must not mint its own root
// context with context.Background/context.TODO — callers own
// cancellation. Recognized exceptions, exempt without annotation:
// package main, test files, and the documented nil-context fallback
// idiom (Background inside an `if x == nil` guard). Anything else —
// process-lifetime roots, deprecated shims, bench harnesses — needs a
// lint:allow with the reason.
var CtxParam = &analysis.Analyzer{
	Name:     "ctxparam",
	Doc:      "context.Context goes first in exported signatures; no context.Background/TODO in library code (PR 4 contract)",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runCtxParam,
}

func runCtxParam(pass *analysis.Pass) (any, error) {
	sup := newSuppressor(pass, "ctxparam")
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	insp.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if !fd.Name.IsExported() || exemptPos(pass, fd.Pos()) {
			return
		}
		pos := 0
		for _, field := range fd.Type.Params.List {
			n := len(field.Names)
			if n == 0 {
				n = 1
			}
			if t := pass.TypesInfo.TypeOf(field.Type); t != nil && isContextType(t) && pos > 0 {
				sup.reportf(pass, field.Pos(), "context.Context must be the first parameter of exported %s (wlvet/ctxparam)", fd.Name.Name)
			}
			pos += n
		}
	})

	if pass.Pkg.Name() == "main" {
		return nil, nil
	}
	insp.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		call := n.(*ast.CallExpr)
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "context" {
			return true
		}
		if exemptPos(pass, call.Pos()) {
			return true
		}
		for _, anc := range stack {
			if ifs, ok := anc.(*ast.IfStmt); ok && isNilGuard(ifs.Cond) {
				return true // the documented nil-context fallback idiom
			}
		}
		sup.reportf(pass, call.Pos(), "library code must not mint context.%s: thread the caller's context (or lint:allow a process-lifetime root) (wlvet/ctxparam)", sel.Sel.Name)
		return true
	})
	return nil, nil
}

// isNilGuard matches `x == nil` (either side).
func isNilGuard(cond ast.Expr) bool {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || be.Op != token.EQL {
		return false
	}
	for _, side := range []ast.Expr{be.X, be.Y} {
		if id, ok := side.(*ast.Ident); ok && id.Name == "nil" {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	return t.String() == "context.Context"
}
