// Package driver runs go/analysis analyzers over module packages
// without golang.org/x/tools/go/packages (not vendored): it shells out
// to `go list -deps -export -json` for the package list and compiled
// export data, typechecks each matched package from source against its
// dependencies' export data, and runs the analyzers with their Requires
// graph. The analyzers exchange no facts, so only the matched packages
// are analyzed, one after another. Diagnostics are emitted in
// import-path order, then position order.
package driver

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"golang.org/x/tools/go/analysis"
)

// listPackage is the subset of `go list -json` output the driver uses.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Module     *struct{ Main bool }
}

// Diagnostic is one finding, resolved to a printable position and
// tagged with the analyzer that produced it (for -json output and the
// CI problem matcher).
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// Result is one driver run: the findings of the matched packages plus
// the run's shape for the wall-clock report.
type Result struct {
	Diags    []Diagnostic
	Reported []string      // import paths of the analyzed packages, sorted
	Elapsed  time.Duration // wall clock of the analysis phase
}

// Run loads the packages matching patterns, analyzes each of them and
// returns the diagnostics in import-path and position order.
func Run(analyzers []*analysis.Analyzer, patterns []string) (*Result, error) {
	pkgs, err := goList(patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	reported := make(map[string][]Diagnostic)
	res := &Result{}
	start := time.Now()
	for _, p := range pkgs {
		if p.DepOnly || p.Module == nil || !p.Module.Main || len(p.GoFiles) == 0 {
			continue
		}
		diags, err := analyzePackage(fset, imp, p, analyzers)
		if err != nil {
			return nil, err
		}
		reported[p.ImportPath] = diags
		res.Reported = append(res.Reported, p.ImportPath)
	}
	res.Elapsed = time.Since(start)

	sort.Strings(res.Reported)
	for _, path := range res.Reported {
		res.Diags = append(res.Diags, reported[path]...)
	}
	return res, nil
}

func goList(patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,DepOnly,Module", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(out)
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	return pkgs, nil
}

func analyzePackage(fset *token.FileSet, imp types.Importer, p *listPackage, analyzers []*analysis.Analyzer) ([]Diagnostic, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
	pkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", p.ImportPath, err)
	}
	return RunOnPackage(fset, files, pkg, info, analyzers)
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Instances:  make(map[*ast.Ident]types.Instance),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// RunOnPackage applies the analyzers (and, transitively, their
// Requires) to one typechecked package, returning the diagnostics in
// position order. It is shared by the standalone driver and the
// analyzertest golden harness.
func RunOnPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*analysis.Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	results := make(map[*analysis.Analyzer]any)
	running := make(map[*analysis.Analyzer]bool)

	var run func(a *analysis.Analyzer, report bool) error
	run = func(a *analysis.Analyzer, report bool) error {
		if _, done := results[a]; done {
			return nil
		}
		if running[a] {
			return fmt.Errorf("analyzer dependency cycle at %s", a.Name)
		}
		running[a] = true
		defer delete(running, a)
		resultOf := make(map[*analysis.Analyzer]any)
		for _, dep := range a.Requires {
			if err := run(dep, false); err != nil {
				return err
			}
			resultOf[dep] = results[dep]
		}
		name := a.Name
		pass := &analysis.Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			TypesInfo:  info,
			TypesSizes: types.SizesFor("gc", runtime.GOARCH),
			ResultOf:   resultOf,
			Report: func(d analysis.Diagnostic) {
				if report {
					diags = append(diags, Diagnostic{
						Pos:      fset.Position(d.Pos),
						Analyzer: name,
						Message:  d.Message,
					})
				}
			},
			ReadFile: os.ReadFile,
		}
		res, err := a.Run(pass)
		if err != nil {
			return fmt.Errorf("analyzer %s on %s: %v", a.Name, pkg.Path(), err)
		}
		results[a] = res
		return nil
	}
	for _, a := range analyzers {
		if err := run(a, true); err != nil {
			return diags, err
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		if diags[i].Pos.Filename != diags[j].Pos.Filename {
			return diags[i].Pos.Filename < diags[j].Pos.Filename
		}
		if diags[i].Pos.Line != diags[j].Pos.Line {
			return diags[i].Pos.Line < diags[j].Pos.Line
		}
		return diags[i].Pos.Column < diags[j].Pos.Column
	})
	return diags, nil
}
