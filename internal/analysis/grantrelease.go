package wlvet

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// GrantRelease enforces the PR 4/7 resource-release contracts: a
// broker grant (Acquire, AcquireAs, or the façade's Session.acquire)
// must be Released on every path out of the acquiring function, and a
// streaming cursor (a Rows-method result with a Close method) must be
// Closed — directly, via defer, or by handing the resource off
// (returning it, storing it into longer-lived state, or passing it — or
// its release method — to another call, e.g.
// context.AfterFunc(ctx, g.Release); a value read from it, like
// rows.Record(), hands nothing off). A call that takes the resource and
// fails leaves it with the caller: the `if err != nil` guard after
// `x, err := f(…, g, …)` must still release it. Discarding either result
// with `_` is always a leak. The `if err != nil` guard immediately after
// the acquisition is exempt: the resource is nil there.
var GrantRelease = &analysis.Analyzer{
	Name: "grantrelease",
	Doc:  "broker grants and row streams must be released/closed or handed off on every path (PR 4/7 contracts)",
	Run:  runGrantRelease,
}

// releaseProtocol describes one resource discipline.
type releaseProtocol struct {
	kind        string          // diagnostic noun
	methods     map[string]bool // acquiring method names
	release     string          // releasing method name
	resultNamed string          // named type (possibly behind a pointer) of result 0, "" = any with release method
}

var grantProtocols = []releaseProtocol{
	{
		kind:        "broker grant",
		methods:     map[string]bool{"Acquire": true, "AcquireAs": true, "acquire": true},
		release:     "Release",
		resultNamed: "Grant",
	},
	{
		kind:    "row stream",
		methods: map[string]bool{"Rows": true},
		release: "Close",
	},
}

func runGrantRelease(pass *analysis.Pass) (any, error) {
	sup := newSuppressor(pass, "grantrelease")
	for _, file := range pass.Files {
		if exemptPos(pass, file.Pos()) {
			continue
		}
		for _, u := range unitsOf(pass, file) {
			grantReleaseUnit(pass, sup, u)
		}
	}
	return nil, nil
}

// acquisitionOf matches a call against the protocols, requiring the
// first result's type to fit (named Grant for the broker protocol; any
// type whose method set has Close for Rows).
func acquisitionOf(pass *analysis.Pass, call *ast.CallExpr) *releaseProtocol {
	name := calleeName(call)
	for i := range grantProtocols {
		p := &grantProtocols[i]
		if !p.methods[name] {
			continue
		}
		t := pass.TypesInfo.TypeOf(call)
		if t == nil {
			continue
		}
		if tup, ok := t.(*types.Tuple); ok {
			if tup.Len() == 0 {
				continue
			}
			t = tup.At(0).Type()
		}
		if p.resultNamed != "" {
			if named, ok := derefNamed(t); !ok || named.Obj().Name() != p.resultNamed {
				continue
			}
		} else if !hasMethod(t, p.release) {
			continue
		}
		return p
	}
	return nil
}

func derefNamed(t types.Type) (*types.Named, bool) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return n, ok
}

func hasMethod(t types.Type, name string) bool {
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == name {
			return true
		}
	}
	if _, ok := t.Underlying().(*types.Pointer); !ok {
		ms = types.NewMethodSet(types.NewPointer(t))
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == name {
				return true
			}
		}
	}
	return false
}

func grantReleaseUnit(pass *analysis.Pass, sup *suppressor, u funcUnit) {
	type site struct {
		proto  *releaseProtocol
		obj    types.Object // tracked variable, nil when discarded
		call   *ast.CallExpr
		bind   ast.Stmt
		errObj types.Object
	}
	var sites []site

	walkLocal(u.body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		proto := acquisitionOf(pass, call)
		if proto == nil {
			return true
		}
		var errObj types.Object
		if len(as.Lhs) == 2 {
			if id, ok := as.Lhs[1].(*ast.Ident); ok && id.Name != "_" {
				errObj = objOf(pass, id)
			}
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			sup.reportf(pass, as.Pos(), "%s from %s is discarded: it must be %sd on every path, including unexpected success (wlvet/grantrelease)",
				proto.kind, calleeName(call), lower(proto.release))
			return true
		}
		sites = append(sites, site{proto, objOf(pass, id), call, as, errObj})
		return true
	})

	for _, s := range sites {
		if s.obj == nil {
			continue
		}
		releasesOrEscapes := func(n ast.Node) bool {
			return nodeReleasesOrHandsOff(pass, u, n, s.obj, s.proto.release)
		}
		// A deferred release anywhere covers every return.
		deferred := false
		walkLocal(u.body, func(n ast.Node) bool {
			if d, ok := n.(*ast.DeferStmt); ok {
				if releasesOrEscapes(d) {
					deferred = true
				}
			}
			return !deferred
		})
		if deferred {
			continue
		}
		lo, hi := token.NoPos, token.NoPos
		if l, h, ok := errGuardRange(pass, u, s.bind, s.errObj); ok {
			lo, hi = l, h
		}
		leaks := leakReturns(u, s.call, releasesOrEscapes, false, lo, hi)
		handsOff := func(call *ast.CallExpr) bool {
			for _, arg := range call.Args {
				if refersTo(pass, arg, s.obj, s.proto.release) {
					return true
				}
			}
			return false
		}
		// A hand-off call that fails leaves the resource here: its error
		// guard is a path out like any other.
		walkLocal(u.body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as == s.bind || len(as.Rhs) != 1 || len(as.Lhs) < 2 {
				return true
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			errID, isID := as.Lhs[len(as.Lhs)-1].(*ast.Ident)
			if !ok || !isID || !isErrorType(pass.TypesInfo.TypeOf(errID)) || !handsOff(call) {
				return true
			}
			if lo, hi, ok := errGuardRange(pass, u, as, objOf(pass, errID)); ok {
				for _, ret := range leakReturns(u, as, releasesOrEscapes, false, 0, 0) {
					if ret.Pos() >= lo && ret.Pos() < hi {
						leaks = append(leaks, ret)
					}
				}
			}
			return true
		})
		for _, ret := range leaks {
			sup.reportf(pass, ret.Pos(), "return leaks the %s acquired at line %d: %s it, defer that, or hand it off before returning (wlvet/grantrelease)",
				s.proto.kind, pass.Fset.Position(s.call.Pos()).Line, s.proto.release)
		}
	}
}

// refersTo reports whether e mentions obj other than as the receiver of
// a method call or a field read (rows.Record(), g.Bytes()), which reads
// the resource and hands nothing off; its release method value
// (g.Release) counts.
func refersTo(pass *analysis.Pass, e ast.Expr, obj types.Object, release string) bool {
	found := false
	ast.Inspect(e, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.SelectorExpr:
			if id, ok := m.X.(*ast.Ident); ok && objOf(pass, id) == obj && m.Sel.Name != release {
				return false
			}
		case *ast.Ident:
			found = found || objOf(pass, m) == obj
		}
		return !found
	})
	return found
}

// nodeReleasesOrHandsOff reports whether the node's subtree releases
// the tracked resource or moves its ownership elsewhere: calls
// obj.<Release>(), returns obj, passes obj (or its release method
// value) to a call, or stores obj into a field, captured variable,
// composite literal, channel, or map/slice cell of such — obj itself,
// not a value read from it (refersTo).
func nodeReleasesOrHandsOff(pass *analysis.Pass, u funcUnit, n ast.Node, obj types.Object, release string) bool {
	usesObj := func(e ast.Expr) bool { return refersTo(pass, e, obj, release) }
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		switch m := m.(type) {
		case *ast.CallExpr:
			if sel, ok := m.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == release {
				if id, ok := sel.X.(*ast.Ident); ok && objOf(pass, id) == obj {
					found = true
					return false
				}
			}
			for _, arg := range m.Args {
				if usesObj(arg) {
					found = true
					return false
				}
			}
		case *ast.ReturnStmt:
			for _, r := range m.Results {
				if usesObj(r) {
					found = true
					return false
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range m.Lhs {
				if i < len(m.Rhs) && usesObj(m.Rhs[i]) && escapesTarget(pass, u, lhs) {
					found = true
					return false
				}
			}
			if len(m.Rhs) == 1 && usesObj(m.Rhs[0]) {
				for _, lhs := range m.Lhs {
					if escapesTarget(pass, u, lhs) {
						found = true
						return false
					}
				}
			}
		case *ast.CompositeLit:
			for _, el := range m.Elts {
				if usesObj(el) {
					found = true
					return false
				}
			}
		case *ast.SendStmt:
			if usesObj(m.Value) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func lower(s string) string {
	if s == "" {
		return s
	}
	b := []byte(s)
	if b[0] >= 'A' && b[0] <= 'Z' {
		b[0] += 'a' - 'A'
	}
	return string(b)
}
