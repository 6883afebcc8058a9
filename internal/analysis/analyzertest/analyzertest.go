// Package analyzertest is a self-contained golden-file harness for the
// wlvet analyzers (golang.org/x/tools/go/analysis/analysistest is not
// vendored). Test packages live under a GOPATH-style testdata tree:
//
//	testdata/src/<import/path>/*.go
//
// Every line that should produce a diagnostic carries a trailing
// comment of the form
//
//	// want "regexp"
//
// (repeatable on one line for multiple diagnostics). Run typechecks the
// requested packages — resolving imports first against the testdata
// tree, then against the standard library from source — applies the
// analyzer through the same RunOnPackage as cmd/wlvet, and reports any
// mismatch between produced diagnostics and want annotations.
package analyzertest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"

	"wlpm/internal/analysis/driver"
)

var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// loader typechecks testdata packages, memoizing so packages can import
// siblings from the same tree.
type loader struct {
	fset     *token.FileSet
	srcdir   string
	std      types.Importer
	loaded   map[string]*loadedPackage
	visiting map[string]bool
}

type loadedPackage struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func newLoader(testdata string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:     fset,
		srcdir:   filepath.Join(testdata, "src"),
		std:      importer.ForCompiler(fset, "source", nil),
		loaded:   make(map[string]*loadedPackage),
		visiting: make(map[string]bool),
	}
}

// Import implements types.Importer over the testdata tree with a
// standard-library fallback.
func (l *loader) Import(path string) (*types.Package, error) {
	if st, err := os.Stat(filepath.Join(l.srcdir, path)); err == nil && st.IsDir() {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	return l.std.Import(path)
}

func (l *loader) load(path string) (*loadedPackage, error) {
	if p, ok := l.loaded[path]; ok {
		return p, nil
	}
	if l.visiting[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	l.visiting[path] = true
	defer delete(l.visiting, path)

	dir := filepath.Join(l.srcdir, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Instances:  make(map[*ast.Ident]types.Instance),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", path, err)
	}
	p := &loadedPackage{pkg: pkg, files: files, info: info}
	l.loaded[path] = p
	return p, nil
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// wantsOf collects the // want annotations of the package's files.
func wantsOf(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", fset.Position(c.Pos()), m[1], err)
					}
					p := fset.Position(c.Pos())
					wants = append(wants, &want{file: p.Filename, line: p.Line, re: re})
				}
			}
		}
	}
	return wants
}

// analyze runs the analyzer over the testdata package at path.
func analyze(t *testing.T, l *loader, a *analysis.Analyzer, path string) []driver.Diagnostic {
	t.Helper()
	p, err := l.load(path)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := driver.RunOnPackage(l.fset, p.files, p.pkg, p.info, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// Diagnostics loads one testdata package and returns the analyzer's
// raw diagnostic messages in position order — for cases a want comment
// cannot express, like diagnostics reported at comment positions.
func Diagnostics(t *testing.T, testdata string, a *analysis.Analyzer, path string) []string {
	t.Helper()
	diags := analyze(t, newLoader(testdata), a, path)
	msgs := make([]string, len(diags))
	for i, d := range diags {
		msgs[i] = d.Message
	}
	return msgs
}

// Run applies the analyzer to each testdata package and compares
// diagnostics against the packages' want annotations. Packages share
// one loader, so a fixture package may import a sibling.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	l := newLoader(testdata)
	for _, path := range paths {
		path := path
		t.Run(strings.ReplaceAll(path, "/", "_"), func(t *testing.T) {
			diags := analyze(t, l, a, path)
			p := l.loaded[path]
			wants := wantsOf(t, l.fset, p.files)
			sort.SliceStable(wants, func(i, j int) bool {
				if wants[i].file != wants[j].file {
					return wants[i].file < wants[j].file
				}
				return wants[i].line < wants[j].line
			})
			for _, d := range diags {
				matched := false
				for _, w := range wants {
					if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
						w.hit = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
				}
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
				}
			}
		})
	}
}
