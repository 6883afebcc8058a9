package driver

import (
	"fmt"
	"go/types"
	"reflect"

	"golang.org/x/tools/go/analysis"
)

// Facts holds the analysis facts of one run, as exported: one fact per
// (owner, concrete fact type), following go/analysis semantics —
// analyzers are separated by each declaring its own fact types. The
// owner is an object or a package. Every package of a run is
// typechecked in one process and imports its module dependencies in
// their source-checked form, so the object a dependent looks a fact up
// on is the object the fact was exported on.
type Facts map[factKey]analysis.Fact

type factKey struct {
	obj types.Object   // nil for a package fact
	pkg *types.Package // nil for an object fact
	t   reflect.Type
}

// bind wires the pass's fact functions to the map.
func (fs Facts) bind(pass *analysis.Pass) {
	load := func(k factKey, ptr analysis.Fact) bool {
		f, ok := fs[k]
		if ok {
			reflect.ValueOf(ptr).Elem().Set(reflect.ValueOf(f).Elem())
		}
		return ok
	}
	pass.ImportObjectFact = func(obj types.Object, ptr analysis.Fact) bool {
		if obj == nil {
			panic("nil object")
		}
		return load(factKey{obj: obj, t: reflect.TypeOf(ptr)}, ptr)
	}
	pass.ImportPackageFact = func(pkg *types.Package, ptr analysis.Fact) bool {
		return load(factKey{pkg: pkg, t: reflect.TypeOf(ptr)}, ptr)
	}
	pass.ExportObjectFact = func(obj types.Object, fact analysis.Fact) {
		if obj.Pkg() != pass.Pkg {
			panic(fmt.Sprintf("exporting fact for object %v of foreign package %v", obj, obj.Pkg()))
		}
		fs[factKey{obj: obj, t: reflect.TypeOf(fact)}] = fact
	}
	pass.ExportPackageFact = func(fact analysis.Fact) {
		fs[factKey{pkg: pass.Pkg, t: reflect.TypeOf(fact)}] = fact
	}
	own := make(map[reflect.Type]bool)
	for _, f := range pass.Analyzer.FactTypes {
		own[reflect.TypeOf(f)] = true
	}
	pass.AllObjectFacts = func() []analysis.ObjectFact {
		var out []analysis.ObjectFact
		for k, f := range fs {
			if k.obj != nil && own[k.t] {
				out = append(out, analysis.ObjectFact{Object: k.obj, Fact: f})
			}
		}
		return out
	}
	pass.AllPackageFacts = func() []analysis.PackageFact {
		var out []analysis.PackageFact
		for k, f := range fs {
			if k.pkg != nil && own[k.t] {
				out = append(out, analysis.PackageFact{Package: k.pkg, Fact: f})
			}
		}
		return out
	}
}
