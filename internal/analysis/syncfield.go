package wlvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"

	"wlpm/internal/analysis/lockflow"
)

// SyncField flags a struct field that is guarded by the struct's own
// mutex at some access sites but read or written bare at others — the
// half-synchronized state go test -race only catches when a schedule
// happens to interleave the two sites. A field is in scope once the
// struct declares (or embeds) a sync.Mutex/RWMutex and at least one
// access runs under it; every further access must then hold the mutex
// too, except:
//
//   - accesses through a base constructed in the same function body
//     (the not-yet-published object of a constructor);
//   - accesses inside a method whose name ends in "Locked" — the
//     engine's convention that the caller already holds the lock. The
//     convention cuts both ways: SyncField also flags calls to
//     *Locked methods made without the mutex held;
//   - fields that escape by address (&x.f) or live in sync/atomic
//     types — aliased or atomic state is outside the mutex discipline
//     this analyzer can see.
//
// Read-only fields (set at construction, never written after) are not
// flagged even when reads are mixed: without a write there is no race.
var SyncField = &analysis.Analyzer{
	Name: "syncfield",
	Doc:  "struct fields guarded by the struct's mutex somewhere must be guarded everywhere; *Locked methods require the lock at the call site (PR 4/7 contract)",
	Run:  runSyncField,
}

type fieldAccess struct {
	pos     token.Pos
	guarded bool
	write   bool
}

type fieldState struct {
	field     *types.Var
	owner     string // display name of the struct
	mutexKeys map[string]bool
	mutexName string
	accesses  []fieldAccess
	aliased   bool
}

func runSyncField(pass *analysis.Pass) (any, error) {
	sup := newSuppressor(pass, "syncfield")

	// Structs of this package that carry a mutex, their guarded-field
	// candidates, and their *Locked methods.
	states := make(map[*types.Var]*fieldState)
	lockedMethods := make(map[*types.Func]*fieldState) // method → receiver's mutex expectation
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		mutexes := lockflow.StructMutex(st)
		if len(mutexes) == 0 {
			continue
		}
		keys := make(map[string]bool, len(mutexes))
		for _, mu := range mutexes {
			keys[lockflow.FieldKey(pass.Pkg.Path(), tn.Name(), mu.Name())] = true
		}
		proto := fieldState{
			owner:     tn.Name(),
			mutexKeys: keys,
			mutexName: tn.Name() + "." + mutexes[0].Name(),
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if lockflow.IsMutexType(f.Type()) || isAtomicType(f.Type()) {
				continue
			}
			fs := proto
			fs.field = f
			states[f] = &fs
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if strings.HasSuffix(m.Name(), "Locked") {
				fs := proto
				lockedMethods[m] = &fs
			}
		}
	}
	if len(states) == 0 && len(lockedMethods) == 0 {
		return nil, nil
	}

	type lockedCall struct {
		pos  token.Pos
		want *fieldState
		fn   *types.Func
	}
	var badCalls []lockedCall

	for _, file := range pass.Files {
		if exemptPos(pass, file.Pos()) {
			continue
		}
		units := unitsOf(pass, file)
		flows := make([]*lockflow.Flow, len(units))
		for i, u := range units {
			flows[i] = lockflow.Analyze(pass, u.body)
		}
		// A literal passed directly as a call argument runs within the
		// caller's dynamic extent (sort.Search comparators, map Range
		// visitors), so its accesses inherit the parent's held locks at
		// the literal's position. Stored or go'ed literals do not — they
		// run later, lockless.
		callArgLit := make(map[ast.Node]bool)
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				for _, arg := range call.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						callArgLit[lit] = true
					}
				}
			}
			return true
		})
		inheritedHolds := func(unit funcUnit, keys map[string]bool) bool {
			node := unit.node
			for {
				lit, ok := node.(*ast.FuncLit)
				if !ok || !callArgLit[lit] {
					return false
				}
				var parent *funcUnit
				var parentFlow *lockflow.Flow
				for i := range units {
					p := &units[i]
					if p.node == node || p.body.Pos() > lit.Pos() || lit.Pos() >= p.body.End() {
						continue
					}
					if parent == nil || p.body.Pos() >= parent.body.Pos() {
						parent, parentFlow = p, flows[i]
					}
				}
				if parent == nil {
					return false
				}
				for _, l := range parentFlow.HeldAt(lit.Pos()) {
					if keys[l.Key] {
						return true
					}
				}
				node = parent.node
			}
		}

		for ui, u := range units {
			flow := flows[ui]

			// Inside Type.xLocked the caller holds Type's mutex by the
			// naming contract — accesses there count as guarded.
			inLockedMethod := func(keys map[string]bool) bool {
				fd, ok := u.node.(*ast.FuncDecl)
				if !ok || !strings.HasSuffix(fd.Name.Name, "Locked") {
					return false
				}
				fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
				want, ok := lockedMethods[fn]
				if !ok {
					return false
				}
				for k := range want.mutexKeys {
					if keys[k] {
						return true
					}
				}
				return false
			}

			holds := func(pos token.Pos, keys map[string]bool) bool {
				for _, l := range flow.HeldAt(pos) {
					if keys[l.Key] {
						return true
					}
				}
				return inLockedMethod(keys) || inheritedHolds(u, keys)
			}

			// Writes and aliasing are properties of the surrounding
			// statement, collected before classifying the sites.
			writes := make(map[*ast.SelectorExpr]bool)
			aliased := make(map[*ast.SelectorExpr]bool)
			walkLocal(u.body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := unwrapSelector(lhs); ok {
							writes[sel] = true
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := unwrapSelector(n.X); ok {
						writes[sel] = true
					}
				case *ast.CallExpr:
					// delete(x.f, k) and clear(x.f) write the field's map
					// (or slice) as surely as x.f[k] = v does.
					if id, ok := n.Fun.(*ast.Ident); ok && (id.Name == "delete" || id.Name == "clear") && len(n.Args) > 0 {
						if _, builtin := pass.TypesInfo.Uses[id].(*types.Builtin); builtin {
							if sel, ok := unwrapSelector(n.Args[0]); ok {
								writes[sel] = true
							}
						}
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						if sel, ok := unwrapSelector(n.X); ok {
							aliased[sel] = true
						}
					}
				}
				return true
			})

			walkLocal(u.body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					sel := pass.TypesInfo.Selections[n]
					if sel == nil || sel.Kind() != types.FieldVal {
						return true
					}
					fv, ok := sel.Obj().(*types.Var)
					if !ok {
						return true
					}
					fs, tracked := states[fv]
					if !tracked {
						return true
					}
					if aliased[n] {
						fs.aliased = true
						return true
					}
					if baseInBody(pass, u, n) {
						return true // constructor pattern: unpublished object
					}
					fs.accesses = append(fs.accesses, fieldAccess{
						pos:     n.Sel.Pos(),
						guarded: holds(n.Pos(), fs.mutexKeys),
						write:   writes[n],
					})
				case *ast.CallExpr:
					fn, ok := calleeFunc(pass, n)
					if !ok {
						return true
					}
					want, ok := lockedMethods[fn]
					if !ok {
						return true
					}
					if sel, isSel := n.Fun.(*ast.SelectorExpr); isSel && baseInBody(pass, u, sel) {
						return true
					}
					if !holds(n.Pos(), want.mutexKeys) {
						badCalls = append(badCalls, lockedCall{n.Pos(), want, fn})
					}
				}
				return true
			})
		}
	}

	// A field is reported only when the mix is real: at least one
	// guarded access, at least one bare one, and a write somewhere.
	fields := make([]*types.Var, 0, len(states))
	for f := range states {
		fields = append(fields, f)
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i].Pos() < fields[j].Pos() })
	for _, f := range fields {
		fs := states[f]
		if fs.aliased {
			continue
		}
		var nGuarded, nWrite int
		for _, a := range fs.accesses {
			if a.guarded {
				nGuarded++
			}
			if a.write {
				nWrite++
			}
		}
		if nGuarded == 0 || nWrite == 0 {
			continue
		}
		for _, a := range fs.accesses {
			if a.guarded {
				continue
			}
			sup.reportf(pass, a.pos, "%s.%s is guarded by %s at %d other site(s) but accessed here without it (wlvet/syncfield)",
				fs.owner, f.Name(), fs.mutexName, nGuarded)
		}
	}
	for _, c := range badCalls {
		sup.reportf(pass, c.pos, "call to %s.%s without holding %s: the Locked suffix is the engine's caller-holds-the-lock contract (wlvet/syncfield)",
			c.want.owner, c.fn.Name(), c.want.mutexName)
	}
	return nil, nil
}

// unwrapSelector strips parens, stars and indexing off an lvalue and
// returns the field selector underneath, if any: x.f[k] = v writes x.f.
func unwrapSelector(e ast.Expr) (*ast.SelectorExpr, bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x, true
		default:
			return nil, false
		}
	}
}

// baseInBody reports whether the selector chain bottoms out in an
// identifier declared inside the unit's body — a locally constructed,
// not-yet-published object whose fields need no lock yet. Receivers
// and parameters are declared in the signature, before the body, and
// do not qualify.
func baseInBody(pass *analysis.Pass, u funcUnit, sel *ast.SelectorExpr) bool {
	e := ast.Expr(sel)
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			obj := objOf(pass, x)
			return obj != nil && obj.Pos() >= u.body.Pos() && obj.Pos() < u.body.End()
		default:
			return false
		}
	}
}

func isAtomicType(t types.Type) bool {
	named, ok := derefNamed(t)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync/atomic"
}

// calleeFunc returns the function or method a call statically names —
// through parens and an explicit instantiation — or false for calls of
// func values, conversions and builtins.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) (*types.Func, bool) {
	fun := ast.Unparen(call.Fun)
	switch x := fun.(type) {
	case *ast.IndexExpr:
		fun = x.X
	case *ast.IndexListExpr:
		fun = x.X
	}
	var obj types.Object
	switch x := ast.Unparen(fun).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[x]
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[x]; ok {
			obj = sel.Obj()
		} else {
			obj = pass.TypesInfo.Uses[x.Sel]
		}
	}
	fn, ok := obj.(*types.Func)
	return fn, ok
}
