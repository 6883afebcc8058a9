// Package wlvet is the engine's static-analysis suite: go/analysis
// analyzers that machine-check the unwritten contracts no test catches
// a breach of — temp sweeps on error paths, grant and cursor release,
// context threading, and field synchronization. The cmd/wlvet binary
// runs them (`wlvet ./...`) on internal/analysis/driver; CI fails on
// any diagnostic. The contracts whose breaches the leak, cancel and
// identity tests catch (cancellation polling, batch ownership, lock
// order, blocking under a lock, goroutine lifecycle) have no analyzer.
//
// Legitimate exceptions are annotated in source with
//
//	//lint:allow wlvet/<analyzer> <reason>
//
// on the offending line, the line above it, or in the enclosing
// function's doc comment. The reason is mandatory; an allow comment
// without one is itself a diagnostic. Test files are exempt — suites
// deliberately violate the invariants to probe the engine. See
// INVARIANTS.md for the contract each analyzer enforces and the PR
// that introduced it.
package wlvet

import (
	"go/ast"
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// exemptPos reports whether the position lies in a file the suite does
// not police: a _test.go file (suites deliberately discard grants,
// drain iterators probe-free, and mint root contexts to put the engine
// in the states under test) or a generated file per the standard
// `// Code generated ... DO NOT EDIT.` convention (the generator, not
// the generated text, is what a human can fix).
func exemptPos(pass *analysis.Pass, pos token.Pos) bool {
	if strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go") {
		return true
	}
	f := fileOf(pass, pos)
	return f != nil && ast.IsGenerated(f)
}

// fileOf returns the syntax file containing pos, or nil.
func fileOf(pass *analysis.Pass, pos token.Pos) *ast.File {
	for _, f := range pass.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// All returns the full wlvet suite in reporting order: the resource
// contracts, then field synchronization.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		TempSweep,
		GrantRelease,
		CtxParam,
		SyncField,
	}
}
