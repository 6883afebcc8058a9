package wlpm_test

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// guard keeps one mechanism single: the lines of the files in scope that
// match pattern (less those that also match unless) must number want, and
// no path in absent may exist. scope is a list of git pathspecs — a
// directory or file, a glob whose * also matches '/', ":!" to exclude —
// and an empty one is the whole tree. Patterns are RE2, matched per line.
type guard struct {
	name    string
	pattern string
	scope   []string
	unless  string
	want    int
	absent  []string
}

// guards are the deletions the tree keeps: each pattern is a line that
// regrows a second mechanism beside the one that stayed.
var guards = []guard{
	{name: "one API generation (no deprecated entry points, no compat shims)",
		pattern: `^// Deprecated:|compat shim|compat entry point`, scope: []string{"*.go", ":!vendor"}},
	{name: "one chain, one poll (no regrown view type, per-package pollEmit/pollRecords, or poll beside algo.Poller: Env.Polled/Poll/Canceled, a selector's unpolled count)",
		pattern: `type (filter|project)(View|Iterator)\b|func (\([^)]*\) )?poll(Emit|Records)\(|\.Polled\(|\.Poll\(\)|\.Canceled\(\)|unpolled`,
		scope:   []string{"internal/exec", "internal/sorts", "internal/joins", "internal/aggregate"}},
	{name: "one declaration per algorithm (no regrown type switch over implementations)",
		pattern: `case \*(sorts|joins)\.[A-Z]`, scope: []string{"internal/exec", "cmd"}},
	{name: "one declaration per algorithm (no algorithm-name switch outside the sorts/joins catalogs)",
		pattern: `case "(ExMS|SelS|LaS|SegS|HybS|NLJ|HJ|GJ|LaJ|SegJ|HybJ)"`, scope: []string{"internal/exec", "cmd"}},
	{name: "one build table (no Go map regrown inside joins.hashTable)",
		pattern: `map\[uint64\]\[\]int32`, scope: []string{"internal/joins"}},
	{name: "one table per join (newHashTable called only by the working set's constructor, so no per-build table regrows)",
		pattern: `newHashTable\(`, scope: []string{"internal/joins/*.go", ":!*_test.go"}, unless: `func newHashTable`, want: 1},
	{name: "one §3.1, the engine's (no regrown side runtime, implicit session, latency setter or CopyAll)",
		pattern: `wlpm/internal/core|\bOpCtx\b|func \(s \*System\) (Query|ParseQuery)\(|SetLatencies|func CopyAll`,
		scope:   []string{"*.go", ":!vendor"}},
	{name: "one harness, one admission path (no regrown engine experiment, grant bidding or re-pricing)",
		pattern: `AcquireBest|Repricer|WithGrantBidding|[bB]idSlack|PlanCosts|bench\.Register|BENCH_(batch|serve)`,
		scope:   []string{"*.go", ":!vendor"}},
	{name: "one aggregation fallback (no regrown hash-aggregate spill runs or their private merge)",
		pattern: `mergeAggRuns|mergeSpills|\) spill\(`, scope: []string{"internal/exec"}},
	{name: "one aggregation path (no regrown hash aggregate beside the folding intake)",
		pattern: `HashAggregate|hashAggCap|"HashAgg"|\bSpilled\b|finishSpill`, scope: []string{"*.go", ":!vendor"}},
	{name: "one sort stage, one fold (no regrown GroupBy operator, fold sink beside the kernels' combine, or row-at-a-time aggregation state)",
		pattern: `type GroupBy struct|func Fold\(|aggregate\.GroupBy\(|\) Add\(v uint64\)`, scope: []string{"*.go", ":!vendor"}},
	{name: "one end for a fed sort (no regrown resident-only stream, heap iterator or merge into a collection beside Intake.Stream)",
		pattern: `func \(in \*Intake\) (Resident|MergeInto)|type heapIter`, scope: []string{"internal/sorts"}},
	{name: "one way to read an input (no regrown open-then-inspect collection source or drain-an-opened-stream emit)",
		pattern: `collectionSource|drainOf\(`, scope: []string{"internal/exec"}},
	{name: "40-byte partials (no regrown result-width partial buffer in aggregate)",
		pattern: `make\(\[\]byte, record.Size\)`, scope: []string{"internal/aggregate"}},
	{name: "one append protocol (range writers never wait on each other)",
		pattern: `chan fragment|ErrRangeAppendUnsupported|func \(w \*RangeWriter\) (Abort|Finish)`,
		scope:   []string{"internal/storage", "internal/sorts"}},
	{name: "one analysis pass (no fact wire format, no worker pool)",
		pattern: `encoding/gob|objectpath|sync\.(Cond|Mutex|RWMutex|WaitGroup)|go func`, scope: []string{"internal/analysis/driver"}},
	{name: "one analysis pass (no vet-plugin-only vendoring)",
		pattern: `objectpath|typesinternal|internal/stdlib|internal/versions`, scope: []string{"vendor/modules.txt"}},
	{name: "one gate per contract (no analyzer regrown for a contract the tests hold, no analysis facts, no vendored typeutil)",
		pattern: `"(ctxpoll|batchown|lockorder|lockblock|gospawn)"|FactTypes|ExportObjectFact|go/types/typeutil`,
		scope:   []string{"internal/analysis", "cmd/wlvet", "vendor/modules.txt"}},
	{name: "one kernel tree (no binary-heap sift regrown in Keyed)",
		pattern: `func \(h \*Keyed\) (up|down)\(`, scope: []string{"internal/xheap"}},
	{name: "one admission queue (no fairness gate beside the broker)",
		pattern: `FairGate|gate\.(Enter|Exit)\(`, scope: []string{"*.go", ":!vendor", ":!benchmark"}},
	{name: "one collection factory (no backend regrows a factory type or a collection-name map, no pmfs/ramdisk package beside the fsbase profiles)",
		pattern: `func \(f \*Factory\) (Create|ReservesBlocks)\(|names +map\[string\]bool`,
		scope:   []string{"internal/storage", ":!internal/storage/factory.go"},
		absent:  []string{"internal/storage/pmfs", "internal/storage/ramdisk"}},
	{name: "one pull protocol (an opened operator is a storage iterator: no regrown batch type, batch scanner, limit hint, exec cursor or batch-valued Next)",
		pattern: `type Batch struct|batchScanner|limitHint|type Cursor\b|Next\(ctx [^)]*\) \(\*Batch`, scope: []string{"internal/exec"}},
	{name: "one split per plan (no Open-time re-split)",
		pattern: `func \(bp \*budgetPlan\) (commit|clusterCap)\(|Resplit`, scope: []string{"internal/exec"}},
	{name: "one price per algorithm (no optional profile interface, fold beside the drivers, closed form beside the profiles or per-algorithm façade pricer)",
		pattern: `Profiled|type folding|type combiner|HybridSortCost|LazySortCost|HashJoinCost|NestedLoopsJoinCost|func Profile(ExternalMergeSort|SegmentSort|HybridJoin)`,
		scope:   []string{"*.go", ":!vendor"}},
	{name: "one knob placement (no kernel solves Eq. 4 or Eqs. 7–8 beside the cost package's search, no auto-placed HybJ)",
		pattern: `SegmentSortOptimalX|HybridJoinSaddle|AutoHybrid`, scope: []string{"internal/sorts", "internal/joins", ":!*_test.go"}},
	{name: "one test kit, for tests only (no program file imports internal/testkit)",
		pattern: `"wlpm/internal/testkit"`, scope: []string{"*.go", ":!*_test.go", ":!vendor"}},
	{name: "one test kit (no test regrows a counting or cancelling context, a failing collection or factory, a temp counter or an RNG beside internal/testkit's)",
		pattern: `type (countingCtx|countdownCtx|cancelAfterCtx|pollCountCtx|failAfter|failAfterN|failingAppend|failingFactory|failingTemps|failingReads|failingScan|refusingOutput|tempCounts|testRNG|buildRNG)\b`,
		scope:   []string{"*_test.go", ":!vendor"}},
}

// guardsFile is this file, which spells every pattern and is in no
// guard's scope.
const guardsFile = "guards_test.go"

// specMatches reports whether the slash path p is spec or lies under it,
// git's pathspec match: a spec with a * is a glob whose * matches any run
// of characters, '/' included.
func specMatches(spec, p string) bool {
	parts := strings.Split(spec, "*")
	if len(parts) == 1 {
		return p == spec || strings.HasPrefix(p, spec+"/")
	}
	rest, ok := strings.CutPrefix(p, parts[0])
	if !ok {
		return false
	}
	for _, part := range parts[1 : len(parts)-1] {
		i := strings.Index(rest, part)
		if i < 0 {
			return false
		}
		rest = rest[i+len(part):]
	}
	return strings.HasSuffix(rest, parts[len(parts)-1])
}

// inScope reports whether the slash path p is in the pathspec list scope:
// under some included spec (the whole tree when there is none) and under
// no excluded one.
func inScope(p string, scope []string) bool {
	in, includes := false, false
	for _, spec := range scope {
		if ex, ok := strings.CutPrefix(spec, ":!"); ok {
			if specMatches(ex, p) {
				return false
			}
			continue
		}
		includes = true
		in = in || specMatches(spec, p)
	}
	return in || !includes
}

// textFile is one file of the tree, by slash path relative to its root.
type textFile struct {
	path  string
	lines []string
}

// textFiles reads the tree under root but this file, as git grep searches
// the tracked tree: hidden directories (.git, build caches) and binary
// files are left out.
func textFiles(root string) ([]textFile, error) {
	var out []textFile
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil || rel == guardsFile {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil || bytes.IndexByte(b, 0) >= 0 {
			return err
		}
		out = append(out, textFile{filepath.ToSlash(rel), strings.Split(string(b), "\n")})
		return nil
	})
	return out, err
}

// hits lists the lines of files that g's pattern finds, as
// "path:line: text".
func (g guard) hits(files []textFile) []string {
	re := regexp.MustCompile(g.pattern)
	var unless *regexp.Regexp
	if g.unless != "" {
		unless = regexp.MustCompile(g.unless)
	}
	var out []string
	for _, f := range files {
		if !inScope(f.path, g.scope) {
			continue
		}
		for i, line := range f.lines {
			if re.MatchString(line) && (unless == nil || !unless.MatchString(line)) {
				out = append(out, fmt.Sprintf("%s:%d: %s", f.path, i+1, line))
			}
		}
	}
	return out
}

// TestGuards holds the tree to its deletions: no guard's pattern regrows
// in its scope beyond the lines it allows, and no removed package
// directory reappears. It reads the files itself, so it needs no git.
func TestGuards(t *testing.T) {
	files, err := textFiles(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range guards {
		if found := g.hits(files); len(found) != g.want {
			t.Errorf("%s: %d matching line(s) of %q in %v, want %d:\n%s",
				g.name, len(found), g.pattern, g.scope, g.want, strings.Join(found, "\n"))
		}
		for _, p := range g.absent {
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Errorf("%s: %s exists (stat: %v)", g.name, p, err)
			}
		}
	}
}
