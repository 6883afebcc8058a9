package driver

import (
	"go/ast"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// marker reports every call to a function whose name starts with Mark.
var marker = &analysis.Analyzer{
	Name: "marker",
	Doc:  "reports calls to Mark* functions",
	Run: func(pass *analysis.Pass) (any, error) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					var id *ast.Ident
					switch fun := call.Fun.(type) {
					case *ast.Ident:
						id = fun
					case *ast.SelectorExpr:
						id = fun.Sel
					}
					if id != nil && strings.HasPrefix(id.Name, "Mark") {
						pass.Reportf(call.Pos(), "calls %s", id.Name)
					}
				}
				return true
			})
		}
		return nil, nil
	},
}

// TestRunEndToEnd runs the driver over a two-package temp module: the
// dependency, listed first by go list, is reported after the root
// because output is in import-path order, and a dependency the
// patterns do not match is not reported.
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
	const msg = "calls MarkDone"
	for _, tc := range []struct {
		pattern  string
		reported []string
		want     []finding
	}{
		{"./...", []string{"factmod", "factmod/dep"}, []finding{{"root.go", 6, msg}, {"dep.go", 6, msg}}},
		{".", []string{"factmod"}, []finding{{"root.go", 6, msg}}},
	} {
		res, err := Run([]*analysis.Analyzer{marker}, []string{tc.pattern})
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
		if !reflect.DeepEqual(res.Reported, tc.reported) {
			t.Errorf("Run(%s) reported %v, want %v", tc.pattern, res.Reported, tc.reported)
		}
	}
}
