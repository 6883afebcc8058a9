package wlpm_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"wlpm"
)

// starQuerySetup loads the 3-table star schema (two dimensions over one
// key domain, one fact table) into a fresh system.
func starQuerySetup(t *testing.T, nDim, nFact, par int) (*wlpm.System, wlpm.Collection, wlpm.Collection, wlpm.Collection) {
	t.Helper()
	sys, err := wlpm.New(wlpm.WithCapacity(32<<20), wlpm.WithParallelism(par))
	if err != nil {
		t.Fatal(err)
	}
	dim1, err := sys.Create("dim1")
	if err != nil {
		t.Fatal(err)
	}
	fact, err := sys.Create("fact")
	if err != nil {
		t.Fatal(err)
	}
	if err := wlpm.GenerateJoinInputs(nDim, nFact, 7, dim1.Append, fact.Append); err != nil {
		t.Fatal(err)
	}
	dim2, err := sys.Create("dim2")
	if err != nil {
		t.Fatal(err)
	}
	if err := wlpm.GenerateRecords(nDim, 13, dim2.Append); err != nil {
		t.Fatal(err)
	}
	for _, c := range []wlpm.Collection{dim1, dim2, fact} {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return sys, dim1, dim2, fact
}

func readAllBytes(t *testing.T, c wlpm.Collection) []byte {
	t.Helper()
	var buf bytes.Buffer
	it := c.Scan()
	defer it.Close()
	for {
		rec, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(rec)
	}
	return buf.Bytes()
}

// TestQueryFacadeStarJoin is the façade face of the acceptance
// criterion: a 3-table star join + group-by + order-by through
// wlpm.Query, byte-identical at P=1 and P=4, with the pipelined run
// writing strictly fewer cachelines than the materialize-every-step run.
func TestQueryFacadeStarJoin(t *testing.T) {
	const nDim, nFact = 300, 3000
	budget := int64(nFact * wlpm.RecordSize / 20)

	run := func(par int, materialized bool) ([]byte, uint64) {
		sys, dim1, dim2, fact := starQuerySetup(t, nDim, nFact, par)
		sess := sys.Session(wlpm.WithSessionBudget(budget))
		q := sess.Query(dim2).
			Join(sess.Query(dim1).Join(sess.Query(fact))).
			Project(0, 1, 12, 13, 23, 24, 5, 16, 27, 8).
			GroupBy(3).
			OrderBy()
		out, err := sys.Create("result")
		if err != nil {
			t.Fatal(err)
		}
		sys.ResetStats()
		if materialized {
			err = q.RunMaterializedCtx(context.Background(), out)
		} else {
			_, err = q.RunCtx(context.Background(), out)
		}
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() == 0 {
			t.Fatal("star query produced no rows")
		}
		return readAllBytes(t, out), sys.Stats().Writes
	}

	serial, pipelinedWrites := run(1, false)
	parallel, _ := run(4, false)
	if !bytes.Equal(serial, parallel) {
		t.Fatal("P=4 query output differs from P=1")
	}
	materialized, materializedWrites := run(1, true)
	if !bytes.Equal(serial, materialized) {
		t.Fatal("materialized query output differs from pipelined")
	}
	if pipelinedWrites >= materializedWrites {
		t.Fatalf("pipelined run wrote %d cachelines, materialized %d: want strictly fewer",
			pipelinedWrites, materializedWrites)
	}
}

func TestQueryExplainSurfacesChoices(t *testing.T) {
	sys, dim1, _, fact := starQuerySetup(t, 300, 3000, 1)
	sess := sys.Session(wlpm.WithSessionBudget(int64(3000 * wlpm.RecordSize / 20)))
	ex, err := sess.Query(dim1).Join(sess.Query(fact)).OrderBy().ExplainGranted()
	if err != nil {
		t.Fatal(err)
	}
	if ex.Stages != 2 {
		t.Errorf("explain stages = %d, want 2", ex.Stages)
	}
	if len(ex.Choices) != 2 {
		t.Fatalf("explain has %d choices, want 2", len(ex.Choices))
	}
	if ex.Lambda != 15 {
		t.Errorf("explain λ = %v, want the default device's 15", ex.Lambda)
	}
	s := ex.String()
	for _, want := range []string{"Join[", "OrderBy[", "choice"} {
		if !strings.Contains(s, want) {
			t.Errorf("explain rendering misses %q:\n%s", want, s)
		}
	}
}

// TestExplainPlanLineNamesWhatRan: Open-time re-planning swaps the
// algorithm inside the operator, so the plan line an Explain prints
// after the run — from the cursor and from RunCtx alike — must name the
// algorithm its own choice line does, and it shows the projection on the
// join that applies it: no 160-byte temp exists to be projected later.
// The build side is projected to the five dimension attributes the
// projection reads, under the filters on it.
func TestExplainPlanLineNamesWhatRan(t *testing.T) {
	const nDim, nFact = 1000, 10000
	sys, dim, _, fact := starQuerySetup(t, nDim, nFact, 1)
	for _, c := range []wlpm.Collection{dim, fact} {
		if _, err := sys.Collect(c); err != nil {
			t.Fatal(err)
		}
	}
	// A budget at the two-buffer floor (the order-by over the group-by
	// compiles to no stage), and two filters on the dimension that the
	// statistics take as independent although a1 = a0 on its keys: the
	// build side is estimated at 638 rows, the join opens on 800 and
	// re-plans. The join feeds the group-by, which is ExMS from start to
	// end.
	sess := sys.Session(wlpm.WithSessionBudget(int64(nFact * wlpm.RecordSize / 200)))
	star := func() *wlpm.Query {
		return sess.Query(dim).
			Filter(wlpm.Predicate{Attr: 1, Op: wlpm.CmpLt, Value: 800}).
			Filter(wlpm.Predicate{Attr: 0, Op: wlpm.CmpLt, Value: 800}).
			Join(sess.Query(fact)).
			Project(0, 1, 12, 13, 14, 5, 16, 7, 18, 9).GroupBy(3).OrderBy()
	}
	compiled, err := star().ExplainGranted()
	if err != nil {
		t.Fatal(err)
	}

	rows, err := star().Rows(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := sys.Create("out")
	if err != nil {
		t.Fatal(err)
	}
	ran, err := star().RunCtx(context.Background(), out)
	if err != nil {
		t.Fatal(err)
	}

	for name, ex := range map[string]*wlpm.QueryExplain{"Rows.Explain": rows.Explain(), "RunCtx": ran} {
		replans := 0
		for _, c := range ex.Choices {
			if c.Replanned {
				replans++
			}
			if !strings.Contains(ex.Root, c.Operator+"[") || !strings.Contains(ex.Root, c.Algorithm) {
				t.Errorf("%s: plan line %q does not name the %s choice's %s", name, ex.Root, c.Operator, c.Algorithm)
			}
		}
		if replans == 0 {
			t.Fatalf("%s: no stage re-planned at open; this input no longer exercises the re-render:\n%s", name, ex)
		}
		if ex.Root == compiled.Root {
			t.Errorf("%s: plan line is still the compile-time rendering %q after %d re-plan(s)", name, ex.Root, replans)
		}
		if !strings.Contains(ex.Root, "Join[") || !strings.Contains(ex.Root, " → project[0 1 7 8 9 2 11 3 13 4]](Scan(") {
			t.Errorf("%s: plan line %q does not show the projection on the join that applies it", name, ex.Root)
		}
		if !strings.Contains(ex.Root, "(Scan(dim1) → filter[a1 < 800] → filter[a0 < 800] → project[0 1 5 7 9], Scan(fact))") {
			t.Errorf("%s: plan line %q does not project the build side to the attributes read", name, ex.Root)
		}
		if strings.Contains(ex.Root, "Project[") {
			t.Errorf("%s: plan line %q still has a Project operator above the join", name, ex.Root)
		}
	}
}

func TestParseQueryFacade(t *testing.T) {
	sys, dim1, _, fact := starQuerySetup(t, 200, 2000, 1)
	lookup := func(name string) (wlpm.Collection, error) {
		switch name {
		case "dim":
			return dim1, nil
		case "fact":
			return fact, nil
		}
		return nil, fmt.Errorf("no table %q", name)
	}
	sess := sys.Session(wlpm.WithSessionBudget(int64(2000 * wlpm.RecordSize / 20)))
	q, err := sess.ParseQuery("scan(dim) | join(scan(fact)) | project(a0,a1,a12,a13,a14,a5,a16,a7,a18,a9) | groupby(a3) | orderby", lookup)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sys.Create("result")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.RunCtx(context.Background(), out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 200 {
		t.Fatalf("parsed query produced %d groups, want 200", out.Len())
	}
	if _, err := sess.ParseQuery("scan(nope) | orderby", lookup); err == nil {
		t.Error("unknown table accepted")
	}
}

// TestQueryStatsAndSpillFacade exercises the statistics subsystem at the
// façade: auto-collected column statistics make GroupHint optional (the
// key column's distinct count tells the planner every group fits, so the
// fold stays in memory and the query writes its result alone), a
// 10×-underestimated hint completes — the fold evicts runs and merges
// them — instead of erroring, and RunCtx reports estimated next to actual
// rows.
func TestQueryStatsAndSpillFacade(t *testing.T) {
	const n, groups = 4000, 50
	setup := func(opts ...wlpm.Option) (*wlpm.System, wlpm.Collection) {
		sys, err := wlpm.New(append([]wlpm.Option{wlpm.WithCapacity(32 << 20)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		in, err := sys.Create("in")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			rec := wlpm.NewRecord(uint64(i % groups))
			wlpm.SetAttr(rec, 4, uint64(i))
			if err := in.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := in.Close(); err != nil {
			t.Fatal(err)
		}
		return sys, in
	}

	// run returns the query's bytes, its explanation and the cachelines
	// it wrote; resultWrites is what writing those bytes alone costs.
	run := func(sys *wlpm.System, q *wlpm.Query) ([]byte, *wlpm.QueryExplain, uint64) {
		out, err := sys.Create(fmt.Sprintf("out%d", sys.Stats().Reads))
		if err != nil {
			t.Fatal(err)
		}
		sys.ResetStats()
		ex, err := q.RunCtx(context.Background(), out)
		if err != nil {
			t.Fatal(err)
		}
		writes := sys.Stats().Writes
		return readAllBytes(t, out), ex, writes
	}
	resultWrites := func(sys *wlpm.System, recs []byte) uint64 {
		c, err := sys.Create(fmt.Sprintf("copy%d", sys.Stats().Reads))
		if err != nil {
			t.Fatal(err)
		}
		sys.ResetStats()
		for off := 0; off < len(recs); off += wlpm.RecordSize {
			if err := c.Append(recs[off : off+wlpm.RecordSize]); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		return sys.Stats().Writes
	}

	// Ground truth: pinned sort-based group-by, statistics disabled.
	sysRef, inRef := setup(wlpm.WithAutoCollect(false))
	mb := wlpm.WithSessionBudget(1 << 20)
	want, _, _ := run(sysRef, sysRef.Session(mb).Query(inRef).GroupByWith(4, wlpm.ExternalMergeSort()))

	// No hint: auto-collected statistics size the fold, which fits.
	sys, in := setup()
	got, ex, writes := run(sys, sys.Session(mb).Query(in).GroupBy(4))
	if len(ex.Choices) != 1 || !ex.Choices[0].Fed {
		t.Fatalf("hintless query chose %+v, want the fed group-by", ex.Choices)
	}
	if alone := resultWrites(sys, got); writes != alone {
		t.Errorf("statistics-sized fold wrote %d cachelines, its result alone %d", writes, alone)
	}
	if ex.Choices[0].ActualRows != n {
		t.Errorf("explain actual rows = %d, want %d", ex.Choices[0].ActualRows, n)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("statistics-planned output differs from the pinned sort-based plan")
	}
	if ts := sys.TableStats("in"); ts == nil || ts.Col(0).Distinct != groups {
		t.Errorf("auto-collected statistics missing or wrong: %+v", ts)
	}

	// A 10×-underestimated hint on a high-cardinality input: the fold is
	// chosen for groups that fit, must evict, and still match the
	// sort-based output byte for byte.
	const bigGroups = 2000
	sysSp, err := wlpm.New(wlpm.WithCapacity(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	inSp, err := sysSp.Create("in")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rec := wlpm.NewRecord(uint64(i % bigGroups))
		wlpm.SetAttr(rec, 4, uint64(i))
		if err := inSp.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := inSp.Close(); err != nil {
		t.Fatal(err)
	}
	sessSp := sysSp.Session(wlpm.WithSessionBudget(64 << 10))
	outSp, err := sysSp.Create("spill")
	if err != nil {
		t.Fatal(err)
	}
	sysSp.ResetStats()
	exSp, err := sessSp.Query(inSp).GroupHint(bigGroups/10).GroupBy(4).RunCtx(context.Background(), outSp)
	if err != nil {
		t.Fatalf("underestimated hint failed instead of evicting: %v", err)
	}
	spWrites := sysSp.Stats().Writes
	if !exSp.Choices[0].Fed {
		t.Fatalf("expected the fed group-by, got %+v", exSp.Choices[0])
	}
	if alone := resultWrites(sysSp, readAllBytes(t, outSp)); spWrites <= alone {
		t.Fatalf("an underestimated fold wrote %d cachelines, its result alone %d: it evicted no run", spWrites, alone)
	}
	refSp, err := sysSp.Create("spill.ref")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sessSp.Query(inSp).GroupByWith(4, wlpm.ExternalMergeSort()).RunCtx(context.Background(), refSp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readAllBytes(t, outSp), readAllBytes(t, refSp)) {
		t.Fatal("spilled façade output differs from the sort-based plan")
	}
}

// TestQueryFilterPushesNoWrites asserts the streaming property at the
// façade: a filter+project pipeline only writes the result.
func TestQueryFilterPushesNoWrites(t *testing.T) {
	sys, err := wlpm.New(wlpm.WithCapacity(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	in, err := sys.Create("in")
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	if err := wlpm.GenerateRecords(n, 3, in.Append); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := sys.CreateSized("out", 2*8)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetStats()
	q := sys.Session(wlpm.WithSessionBudget(64<<10)).Query(in).
		Filter(wlpm.Predicate{Attr: 0, Op: wlpm.CmpLt, Value: n / 2}).
		Project(0, 3)
	if _, err := q.RunCtx(context.Background(), out); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if out.Len() != n/2 {
		t.Fatalf("filter kept %d records, want %d", out.Len(), n/2)
	}
	// The only writes are the result's own cachelines (16 B records):
	// allow block-flush rounding but nothing near a full materialization.
	resultLines := uint64(out.Len()*16)/64 + 64
	if st.Writes > resultLines*2 {
		t.Errorf("streaming pipeline wrote %d cachelines, result needs ~%d", st.Writes, resultLines)
	}
}

// TestQueryLimitMatchesParsedLimit holds the builder's Limit to the
// DSL's limit step: Query(in).OrderBy().Limit(7) returns the same bytes
// as "scan(in) | orderby | limit(7)", with the same device reads, under
// a Limit[7] root.
func TestQueryLimitMatchesParsedLimit(t *testing.T) {
	sys, err := wlpm.New(wlpm.WithCapacity(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	in, err := sys.Create("in")
	if err != nil {
		t.Fatal(err)
	}
	if err := wlpm.GenerateRecords(5000, 3, in.Append); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	// Collected up front, so neither run pays for the statistics.
	if _, err := sys.Collect(in); err != nil {
		t.Fatal(err)
	}
	sess := sys.Session(wlpm.WithSessionBudget(64 << 10))
	parsed, err := sess.ParseQuery("scan(in) | orderby | limit(7)", func(name string) (wlpm.Collection, error) {
		if name != "in" {
			return nil, fmt.Errorf("no table %q", name)
		}
		return in, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string, q *wlpm.Query) ([]byte, uint64, string) {
		out, err := sys.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		sys.ResetStats()
		ex, err := q.RunCtx(context.Background(), out)
		if err != nil {
			t.Fatal(err)
		}
		reads := sys.Stats().Reads
		return readAllBytes(t, out), reads, ex.Root
	}
	got, gotReads, root := run("built", sess.Query(in).OrderBy().Limit(7))
	want, wantReads, _ := run("parsed", parsed)
	if len(got) != 7*wlpm.RecordSize || !bytes.Equal(got, want) {
		t.Fatalf("Limit(7) returned %d bytes, differing from the parsed limit(7)'s %d", len(got), len(want))
	}
	if gotReads != wantReads {
		t.Errorf("Limit(7) read %d cachelines, the parsed limit(7) %d", gotReads, wantReads)
	}
	if !strings.HasPrefix(root, "Limit[7]") {
		t.Errorf("plan root %q does not name Limit[7]", root)
	}
}
