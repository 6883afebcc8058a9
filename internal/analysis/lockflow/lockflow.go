// Package lockflow computes must-hold mutex locksets over function
// bodies for the wlvet syncfield analyzer. It builds the
// control-flow graph of one function unit (via the vendored
// golang.org/x/tools/go/cfg) and runs a forward dataflow: a mutex
// enters the set at a Lock/RLock call, leaves it at Unlock/RUnlock,
// and survives to every exit when the unlock is deferred. Block entry
// sets are the intersection of the predecessors' exits — the analysis
// reports only locks that are held on *every* path, so downstream
// diagnostics are must-alarms, not may-alarms.
//
// Mutex identity is type-shaped, not instance-shaped: b.mu.Lock() on
// any *broker.Broker contributes the one key
// "wlpm/internal/broker.Broker.mu". That is the right granularity for
// guarded-field checks, at the price of conflating distinct instances
// of one type — acceptable while the engine never nests two locks of
// the same type.
//
// Function literals are separate units with empty entry locksets, the
// same unit boundary the other analyzers use: a goroutine or callback
// does not inherit its creator's locks (it runs later).
package lockflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/cfg"
)

// Lock is one mutex in a lockset.
type Lock struct {
	Key      string // stable identity, e.g. "wlpm/internal/broker.Broker.mu"
	Deferred bool   // its release is deferred: held to every exit
}

// OpKind classifies a mutex method call.
type OpKind int

const (
	OpLock OpKind = iota
	OpUnlock
	OpRLock
	OpRUnlock
)

// Op is a recognized mutex acquisition or release.
type Op struct {
	Kind OpKind
	Key  string
}

// Flow is the lockset analysis of one function unit: the locks held
// on entry to each of its nodes. Nodes inside defer statements and
// nested function literals are not covered (defers run at return,
// literals are units of their own).
type Flow struct {
	spans []heldSpan
}

type heldSpan struct {
	lo, hi token.Pos
	held   []Lock
}

// HeldAt returns the must-hold lockset at the innermost analyzed node
// containing pos, or nil when pos lies outside the analyzed nodes
// (e.g. inside a nested literal).
func (f *Flow) HeldAt(pos token.Pos) []Lock {
	var best *heldSpan
	for i := range f.spans {
		s := &f.spans[i]
		if pos < s.lo || pos >= s.hi {
			continue
		}
		if best == nil || (s.lo >= best.lo && s.hi <= best.hi) {
			best = s
		}
	}
	if best == nil {
		return nil
	}
	return best.held
}

// Analyze runs the lockset dataflow over one function body.
func Analyze(pass *analysis.Pass, body *ast.BlockStmt) *Flow {
	g := cfg.New(body, func(*ast.CallExpr) bool { return true })
	if len(g.Blocks) == 0 {
		return &Flow{}
	}
	f := &Flow{}

	// Fixpoint: entry starts empty, every other block starts "unknown"
	// (top); block entry = intersection over predecessor exits.
	in := make([][]Lock, len(g.Blocks))
	defined := make([]bool, len(g.Blocks))
	defined[g.Blocks[0].Index] = true
	work := []*cfg.Block{g.Blocks[0]}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		out := f.scan(pass, b, in[b.Index], false)
		for _, s := range b.Succs {
			if !defined[s.Index] {
				defined[s.Index] = true
				in[s.Index] = cloneSet(out)
				work = append(work, s)
			} else if merged, changed := intersect(in[s.Index], out); changed {
				in[s.Index] = merged
				work = append(work, s)
			}
		}
	}

	// Record the held sets over the stabilized entry sets.
	for _, b := range g.Blocks {
		if !defined[b.Index] {
			continue // unreachable
		}
		f.scan(pass, b, in[b.Index], true)
	}
	return f
}

// scan walks one block's nodes in order, applying mutex effects to a
// copy of entry and, when record is set, noting the set held on entry
// to each node. It returns the block's exit set.
func (f *Flow) scan(pass *analysis.Pass, b *cfg.Block, entry []Lock, record bool) []Lock {
	set := cloneSet(entry)
	for _, n := range b.Nodes {
		if record {
			f.spans = append(f.spans, heldSpan{n.Pos(), n.End(), cloneSet(set)})
		}
		set = scanNode(pass, n, set)
	}
	return set
}

func scanNode(pass *analysis.Pass, n ast.Node, set []Lock) []Lock {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false // separate unit
		case *ast.DeferStmt:
			// A deferred unlock keeps the lock held to every exit; any
			// other deferred work runs at return and is not a site.
			set = applyDeferred(pass, m.Call, set)
			return false
		case *ast.CallExpr:
			if op, ok := MutexOp(pass, m); ok {
				set = applyOp(op, set)
			}
		}
		return true
	})
	return set
}

// applyDeferred marks locks whose release is the deferred call — either
// `defer mu.Unlock()` or `defer func() { ...; mu.Unlock() }()`.
func applyDeferred(pass *analysis.Pass, call *ast.CallExpr, set []Lock) []Lock {
	mark := func(op Op) {
		if op.Kind != OpUnlock && op.Kind != OpRUnlock {
			return
		}
		for i := range set {
			if set[i].Key == op.Key {
				set = cloneSet(set)
				set[i].Deferred = true
				return
			}
		}
	}
	if op, ok := MutexOp(pass, call); ok {
		mark(op)
		return set
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if op, ok := MutexOp(pass, c); ok {
					mark(op)
				}
			}
			return true
		})
	}
	return set
}

func applyOp(op Op, set []Lock) []Lock {
	switch op.Kind {
	case OpLock, OpRLock:
		for _, l := range set {
			if l.Key == op.Key {
				return set // re-entrant misuse; keep one entry
			}
		}
		out := cloneSet(set)
		return append(out, Lock{Key: op.Key})
	case OpUnlock, OpRUnlock:
		out := set[:0:0]
		for _, l := range set {
			if l.Key != op.Key || l.Deferred {
				out = append(out, l)
			}
		}
		return out
	}
	return set
}

func cloneSet(set []Lock) []Lock {
	if len(set) == 0 {
		return nil
	}
	out := make([]Lock, len(set))
	copy(out, set)
	return out
}

// intersect keeps a's locks that also appear in b (by key), preserving
// a's order and OR-ing the Deferred flags. The second result reports
// whether the merge shrank or changed a.
func intersect(a, b []Lock) ([]Lock, bool) {
	out := make([]Lock, 0, len(a))
	changed := false
	for _, l := range a {
		found := false
		for _, m := range b {
			if m.Key == l.Key {
				if m.Deferred && !l.Deferred {
					l.Deferred = true
					changed = true
				}
				found = true
				break
			}
		}
		if found {
			out = append(out, l)
		} else {
			changed = true
		}
	}
	return out, changed
}

// MutexOp recognizes a call as a sync.Mutex/sync.RWMutex Lock, Unlock,
// RLock or RUnlock and resolves the mutex's identity key.
func MutexOp(pass *analysis.Pass, call *ast.CallExpr) (Op, bool) {
	fun, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return Op{}, false
	}
	var kind OpKind
	switch fun.Sel.Name {
	case "Lock":
		kind = OpLock
	case "Unlock":
		kind = OpUnlock
	case "RLock":
		kind = OpRLock
	case "RUnlock":
		kind = OpRUnlock
	default:
		return Op{}, false
	}
	fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return Op{}, false
	}

	// Embedded mutex: x.Lock() where x's type embeds sync.Mutex. The
	// selection's index path names the embedded field.
	if sel := pass.TypesInfo.Selections[fun]; sel != nil && sel.Kind() == types.MethodVal {
		recv := derefType(sel.Recv())
		if !isSyncMutex(recv) {
			key, ok := embeddedMutexKey(recv, sel.Index())
			if !ok {
				return Op{}, false
			}
			return Op{Kind: kind, Key: key}, true
		}
	}
	key, ok := KeyOf(pass, fun.X)
	if !ok {
		return Op{}, false
	}
	return Op{Kind: kind, Key: key}, true
}

// KeyOf resolves a mutex-valued expression to its identity key: the
// owning struct type plus field name for field mutexes, the package
// path plus variable name for package-level mutexes, and a
// position-qualified name for locals (which never cross packages).
func KeyOf(pass *analysis.Pass, expr ast.Expr) (key string, ok bool) {
	switch e := expr.(type) {
	case *ast.ParenExpr:
		return KeyOf(pass, e.X)
	case *ast.UnaryExpr:
		return KeyOf(pass, e.X)
	case *ast.StarExpr:
		return KeyOf(pass, e.X)
	case *ast.SelectorExpr:
		if sel := pass.TypesInfo.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
			field := sel.Obj()
			if named, ok := derefType(sel.Recv()).(*types.Named); ok {
				return FieldKey(named.Obj().Pkg().Path(), named.Obj().Name(), field.Name()), true
			}
			if field.Pkg() != nil {
				return FieldKey(field.Pkg().Path(), "<anon>", field.Name()), true
			}
			return "", false
		}
		// Qualified package-level var: pkg.Mu.
		if v, ok := pass.TypesInfo.Uses[e.Sel].(*types.Var); ok {
			return keyOfVar(v)
		}
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = pass.TypesInfo.Defs[e]
		}
		if v, ok := obj.(*types.Var); ok {
			return keyOfVar(v)
		}
	}
	return "", false
}

func keyOfVar(v *types.Var) (key string, ok bool) {
	if v.Pkg() == nil {
		return "", false
	}
	if v.Parent() == v.Pkg().Scope() {
		return v.Pkg().Path() + "." + v.Name(), true
	}
	// Local mutex: position-qualified, distinct from every other.
	return fmt.Sprintf("%s.%s@%d", v.Pkg().Path(), v.Name(), v.Pos()), true
}

// FieldKey is the canonical identity of a struct-field mutex; the
// syncfield analyzer derives guard keys through it so the format lives
// in one place.
func FieldKey(pkgPath, typeName, fieldName string) string {
	return pkgPath + "." + typeName + "." + fieldName
}

// embeddedMutexKey resolves x.Lock() through the selection index path
// to the embedded sync.Mutex field.
func embeddedMutexKey(recv types.Type, index []int) (key string, ok bool) {
	named, ok := derefType(recv).(*types.Named)
	if !ok {
		return "", false
	}
	t := derefType(recv)
	var fieldName string
	for _, idx := range index[:len(index)-1] {
		st, ok := t.Underlying().(*types.Struct)
		if !ok || idx >= st.NumFields() {
			return "", false
		}
		f := st.Field(idx)
		fieldName = f.Name()
		t = derefType(f.Type())
	}
	if fieldName == "" {
		return "", false
	}
	return FieldKey(named.Obj().Pkg().Path(), named.Obj().Name(), fieldName), true
}

// StructMutex returns the mutex fields of a struct type (declared or
// embedded sync.Mutex/sync.RWMutex), in declaration order.
func StructMutex(st *types.Struct) []*types.Var {
	var out []*types.Var
	for i := 0; i < st.NumFields(); i++ {
		if isSyncMutex(derefType(st.Field(i).Type())) {
			out = append(out, st.Field(i))
		}
	}
	return out
}

// IsMutexType reports whether t (after deref) is sync.Mutex or
// sync.RWMutex.
func IsMutexType(t types.Type) bool { return isSyncMutex(derefType(t)) }

func isSyncMutex(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != "sync" {
		return false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
		return true
	}
	return false
}

func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
