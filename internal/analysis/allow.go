package wlvet

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
	"sync"

	"golang.org/x/tools/go/analysis"
)

// allowRe matches the suppression comment the suite honors:
//
//	//lint:allow wlvet/<analyzer> <reason>
//
// The reason is mandatory — suppressions must say why the contract
// does not apply at the site.
var allowRe = regexp.MustCompile(`^//lint:allow\s+wlvet/([A-Za-z0-9_]+)(?:\s+(.*))?$`)

// suppressor indexes a package's //lint:allow comments for one
// analyzer. A comment suppresses diagnostics on its own line and on
// the line below it (so it can sit above the offending statement); an
// allow in a function's doc comment covers the whole declaration.
// Generated files are skipped entirely — the suite does not police
// them, so it neither honors nor complains about their comments.
type suppressor struct {
	name  string                    // analyzer short name, e.g. "ctxparam"
	lines map[string]map[int]string // filename → line → reason
	spans []allowSpan
}

type allowSpan struct {
	pos, end token.Pos
	reason   string
}

func newSuppressor(pass *analysis.Pass, name string) *suppressor {
	s := &suppressor{name: name, lines: make(map[string]map[int]string)}
	for _, f := range pass.Files {
		if ast.IsGenerated(f) {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil || m[1] != name {
					continue
				}
				reason := strings.TrimSpace(m[2])
				if reason == "" {
					pass.Reportf(c.Pos(), "lint:allow wlvet/%s needs a reason: //lint:allow wlvet/%s <why this site is exempt>", name, name)
					continue
				}
				p := pass.Fset.Position(c.Pos())
				fl := s.lines[p.Filename]
				if fl == nil {
					fl = make(map[int]string)
					s.lines[p.Filename] = fl
				}
				fl[p.Line] = reason
				fl[p.Line+1] = reason
			}
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if m := allowRe.FindStringSubmatch(c.Text); m != nil && m[1] == name && strings.TrimSpace(m[2]) != "" {
					s.spans = append(s.spans, allowSpan{fd.Pos(), fd.End(), strings.TrimSpace(m[2])})
				}
			}
		}
	}
	return s
}

// allowReason returns the reason of the allow comment covering pos, if
// any.
func (s *suppressor) allowReason(pass *analysis.Pass, pos token.Pos) (string, bool) {
	p := pass.Fset.Position(pos)
	if r, ok := s.lines[p.Filename][p.Line]; ok {
		return r, true
	}
	for _, sp := range s.spans {
		if pos >= sp.pos && pos < sp.end {
			return sp.reason, true
		}
	}
	return "", false
}

// reportf reports unless the position carries an allow comment, in
// which case the suppression is logged for `wlvet -json` audit output.
func (s *suppressor) reportf(pass *analysis.Pass, pos token.Pos, format string, args ...any) {
	if reason, ok := s.allowReason(pass, pos); ok {
		logSuppression(pass, pos, s.name, reason)
		return
	}
	pass.Reportf(pos, format, args...)
}

// AllowEntry is one suppressed finding: where, which analyzer, and the
// reason the site's //lint:allow comment gave. `wlvet -json` emits
// these alongside live diagnostics so suppressions stay auditable.
type AllowEntry struct {
	Pos      token.Position
	Analyzer string
	Reason   string
}

var allowLog struct {
	sync.Mutex
	entries []AllowEntry
}

func logSuppression(pass *analysis.Pass, pos token.Pos, analyzer, reason string) {
	allowLog.Lock()
	defer allowLog.Unlock()
	allowLog.entries = append(allowLog.entries, AllowEntry{
		Pos:      pass.Fset.Position(pos),
		Analyzer: analyzer,
		Reason:   reason,
	})
}

// TakeAllowLog drains the accumulated suppression log; cmd/wlvet calls
// it once after all packages are analyzed.
func TakeAllowLog() []AllowEntry {
	allowLog.Lock()
	defer allowLog.Unlock()
	out := allowLog.entries
	allowLog.entries = nil
	return out
}
