package driver

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// markFact tags functions whose names start with "Mark".
type markFact struct{ Tag string }

func (*markFact) AFact() {}

// tagger exports markFact on Mark* functions and reports every call to
// a tagged function, in its own package or through an imported fact.
var tagger = &analysis.Analyzer{
	Name:      "tagger",
	Doc:       "exports markFact on Mark* functions, reports callers of tagged functions",
	FactTypes: []analysis.Fact{new(markFact)},
	Run: func(pass *analysis.Pass) (any, error) {
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "Mark") {
					pass.ExportObjectFact(pass.TypesInfo.Defs[fd.Name], &markFact{Tag: "marked:" + fd.Name.Name})
				}
			}
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var id *ast.Ident
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					id = fun
				case *ast.SelectorExpr:
					id = fun.Sel
				default:
					return true
				}
				var mf markFact
				if callee, _ := pass.TypesInfo.Uses[id].(*types.Func); callee != nil && pass.ImportObjectFact(callee, &mf) {
					pass.Reportf(call.Pos(), "calls tagged %s (%s)", callee.Name(), mf.Tag)
				}
				return true
			})
		}
		return nil, nil
	},
}

// TestFactPropagation drives RunOnPackage over two hand-typechecked
// packages through one Facts map and asserts that an object fact
// exported while analyzing the dependency is visible when the
// dependent imports it.
func TestFactPropagation(t *testing.T) {
	fset := token.NewFileSet()
	check := func(path, src string, imp types.Importer) (*types.Package, []*ast.File, *types.Info) {
		t.Helper()
		f, err := parser.ParseFile(fset, path+".go", src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		info := newInfo()
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, []*ast.File{f}, info)
		if err != nil {
			t.Fatal(err)
		}
		return pkg, []*ast.File{f}, info
	}

	depPkg, depFiles, depInfo := check("factdep", `package factdep
func MarkDone() {}
func Plain()    {}
`, nil)

	facts := Facts{}
	depDiags, err := RunOnPackage(fset, depFiles, depPkg, depInfo, []*analysis.Analyzer{tagger}, facts)
	if err != nil {
		t.Fatal(err)
	}
	if len(depDiags) != 0 {
		t.Fatalf("dependency diagnostics = %v, want none", depDiags)
	}

	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == "factdep" {
			return depPkg, nil
		}
		return importer.Default().Import(path)
	})
	rootPkg, rootFiles, rootInfo := check("factroot", `package factroot
import "factdep"
func use() {
	factdep.MarkDone()
	factdep.Plain()
}
`, imp)

	rootDiags, err := RunOnPackage(fset, rootFiles, rootPkg, rootInfo, []*analysis.Analyzer{tagger}, facts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rootDiags) != 1 {
		t.Fatalf("got %d diagnostics %v, want exactly the MarkDone call", len(rootDiags), rootDiags)
	}
	if want := "calls tagged MarkDone (marked:MarkDone)"; rootDiags[0].Message != want {
		t.Errorf("diagnostic = %q, want %q", rootDiags[0].Message, want)
	}
}

// TestRunEndToEnd runs the driver over a two-package temp module: the
// root's finding exists only through the dependency's fact, and the
// dependency, analyzed first, is reported after the root because
// output is in import-path order.
func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module factmod\n\ngo 1.22\n",
		"root.go": `package factmod

import "factmod/dep"

func Use() {
	dep.MarkDone()
	dep.Plain()
}
`,
		"dep/dep.go": `package dep

func MarkDone() {}

func Plain() {
	MarkDone()
}
`,
	} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Setenv("GOFLAGS", "")
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})

	type finding struct {
		File string
		Line int
		Msg  string
	}
	const msg = "calls tagged MarkDone (marked:MarkDone)"
	for _, tc := range []struct {
		pattern  string
		reported []string
		want     []finding
	}{
		{"./...", []string{"factmod", "factmod/dep"}, []finding{{"root.go", 6, msg}, {"dep.go", 6, msg}}},
		{".", []string{"factmod"}, []finding{{"root.go", 6, msg}}},
	} {
		res, err := Run([]*analysis.Analyzer{tagger}, []string{tc.pattern})
		if err != nil {
			t.Fatalf("Run(%s): %v", tc.pattern, err)
		}
		var got []finding
		for _, d := range res.Diags {
			got = append(got, finding{filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message})
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Run(%s) diagnostics = %v, want %v", tc.pattern, got, tc.want)
		}
		if res.Packages != 2 || !reflect.DeepEqual(res.Reported, tc.reported) {
			t.Errorf("Run(%s) analyzed %d, reported %v; want 2, %v", tc.pattern, res.Packages, res.Reported, tc.reported)
		}
	}
}
