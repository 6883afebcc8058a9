package wlvet

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// CtxPoll enforces the PR 4 cancellation contract: in the kernel
// packages, an unbounded record loop (a `for {}` that consumes an
// iterator via Next/NextChunk) must carry a cancellation probe — the
// Env.Poll checker, a ctx.Err/Canceled check, a select on ctx.Done,
// or a call that threads a context. Bounded loops (any loop with a
// condition) poll at a coarser grain by construction and are exempt.
var CtxPoll = &analysis.Analyzer{
	Name:     "ctxpoll",
	Doc:      "unbounded iterator loops in kernel packages must carry a cancellation probe (PR 4 contract)",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runCtxPoll,
}

// ctxPollScope names the packages whose loops walk unbounded device
// input: the sort/join kernels, their shared runtime, the aggregates,
// and the Volcano layer.
var ctxPollScope = regexp.MustCompile(`(^|/)internal/(algo|sorts|joins|aggregate|exec)(/|$)`)

func runCtxPoll(pass *analysis.Pass) (any, error) {
	if !ctxPollScope.MatchString(pass.Pkg.Path()) {
		return nil, nil
	}
	sup := newSuppressor(pass, "ctxpoll")
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	insp.Preorder([]ast.Node{(*ast.ForStmt)(nil)}, func(n ast.Node) {
		loop := n.(*ast.ForStmt)
		if loop.Cond != nil || exemptPos(pass, loop.Pos()) {
			return
		}
		consumes, probes := false, false
		ast.Inspect(loop.Body, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.CallExpr:
				if isCancellationProbe(pass, m) {
					probes = true
					return true
				}
				if sel, ok := m.Fun.(*ast.SelectorExpr); ok {
					if sel.Sel.Name == "Next" || sel.Sel.Name == "NextChunk" {
						consumes = true
					}
				}
			case *ast.UnaryExpr:
				// <-ctx.Done() (bare or in a select) is a probe.
				if call, ok := m.X.(*ast.CallExpr); ok && calleeName(call) == "Done" {
					probes = true
				}
			}
			return true
		})
		if consumes && !probes {
			sup.reportf(pass, loop.Pos(), "unbounded iterator loop has no cancellation probe: poll the Env.Poll checker, check ctx.Err, or thread a context (wlvet/ctxpoll)")
		}
	})
	return nil, nil
}

// isCancellationProbe reports whether the call checks for
// cancellation: any poll-named callee, an Err/Canceled/Poll method, a
// callee that receives a context argument (the callee then owns
// polling), or a call through a func-typed value — the engine
// convention is that injected callbacks are poll-wrapped by the caller
// (algo.Env.Polled), so the callback owns the probe.
func isCancellationProbe(pass *analysis.Pass, call *ast.CallExpr) bool {
	name := calleeName(call)
	if strings.Contains(strings.ToLower(name), "poll") {
		return true
	}
	switch name {
	case "Err", "Canceled", "Done":
		return true
	}
	for _, arg := range call.Args {
		if t := pass.TypesInfo.TypeOf(arg); t != nil && isContextType(t) {
			return true
		}
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if v, ok := objOf(pass, id).(*types.Var); ok {
			if _, isFunc := v.Type().Underlying().(*types.Signature); isFunc {
				return true
			}
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	return t.String() == "context.Context"
}
