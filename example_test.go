package wlpm_test

import (
	"context"
	"fmt"
	"log"

	"wlpm"
)

// Example shows the paper's §3.1 deferral rules at work in the query
// engine, through the plans it reports. Each rule has one home in the
// code:
//
//	deferral           a filter/project chain over a stored source and
//	                   under a blocking consumer is a zero-write view that
//	                   re-runs on every scan (internal/exec/chain.go)
//	process-to-append  a result whose only reader is a planner-owned sort's
//	                   run formation is appended into that sort's intake,
//	                   never stored (sorts.Intake, compiler.feeding),
//	                   when stageAlloc.sortPlan prices it no dearer than a
//	                   temp (cost.Emit.FedExMS)
//	read-over-write,   the lazy algorithms materialize their shrinking
//	multi-process      input once re-reading it would cost more than
//	                   writing it: Eq. 5 for LaS
//	                   (cost.LazySortMaterializeIteration), Eq. 11 for LaJ
//	                   (cost.LazyHashJoinMaterializeIteration)
//	eager-partition    one scan writes all k Grace partitions
//	                   (joins.partitionInto)
//
// The first plan is the benchmark's star query at a tenth of the fact
// table's bytes: the group-by carries "⇐ feed", so the join's rows went
// straight into its runs and were never a temp, and the order-by above it
// compiled to no stage — a group-by emits its unique keys ascending, the
// order-by's order already — which Explain.Elided notes. The join's
// build side is a view of the five dimension attributes the projection
// above the join reads (deferral again), so nested loops holds twice the
// keys per block. The second sorts
// a filtered base table: the filter renders inside the sort's input, a
// view that every SelS pass re-reads, so the survivors are never written
// as a temp.
func Example() {
	sys, err := wlpm.New(wlpm.WithCapacity(64 << 20))
	if err != nil {
		log.Fatal(err)
	}
	dim, _ := sys.Create("dim")
	fact, _ := sys.Create("fact")
	if err := wlpm.GenerateJoinInputs(1000, 10000, 1, dim.Append, fact.Append); err != nil {
		log.Fatal(err)
	}
	dim.Close()
	fact.Close()
	lookup := wlpm.CollectionLookup(map[string]wlpm.Collection{"dim": dim, "fact": fact})
	sess := sys.Session(wlpm.WithSessionBudget(10000 * wlpm.RecordSize / 10))

	for i, dsl := range []string{
		"scan(dim) | join(scan(fact)) | project(a0,a1,a12,a13,a14,a5,a16,a7,a18,a9) | groupby(a3) | orderby",
		"scan(dim) | filter(a1 < 500) | orderby",
	} {
		q, err := sess.ParseQuery(dsl, lookup)
		if err != nil {
			log.Fatal(err)
		}
		out, _ := sess.Create(fmt.Sprintf("out%d", i))
		ex, err := q.RunCtx(context.Background(), out)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(ex.Root)
		for _, c := range ex.Choices {
			fmt.Printf("  %s fed=%v\n", c.Operator, c.Fed)
		}
		for _, note := range ex.Elided {
			fmt.Println("  elided", note)
		}
	}
	// Output:
	// GroupBy[a3, ExMS ⇐ feed](Join[NLJ → project[0 1 7 8 9 2 11 3 13 4]](Scan(dim) → project[0 1 5 7 9], Scan(fact)))
	//   Join fed=false
	//   GroupBy fed=true
	//   elided OrderBy: no stage, its input is a group-by's result (unique keys, ascending: the record order already)
	// OrderBy[SelS](Scan(dim) → filter[a1 < 500])
	//   OrderBy fed=false
}

// ExampleSystem_SortCtx sorts a small collection with a write-limited
// algorithm and inspects the device counters.
func ExampleSystem_SortCtx() {
	sys, err := wlpm.New(wlpm.WithCapacity(64 << 20))
	if err != nil {
		log.Fatal(err)
	}
	in, _ := sys.Create("input")
	for _, k := range []uint64{5, 1, 4, 2, 3, 0} {
		if err := in.Append(wlpm.NewRecord(k)); err != nil {
			log.Fatal(err)
		}
	}
	in.Close()

	out, _ := sys.Create("sorted")
	if err := sys.SortCtx(context.Background(), wlpm.SegmentSort(0.5), in, out, 1<<20); err != nil {
		log.Fatal(err)
	}

	it := out.Scan()
	defer it.Close()
	for {
		rec, err := it.Next()
		if err != nil {
			break
		}
		fmt.Print(wlpm.Key(rec), " ")
	}
	fmt.Println()
	// Output: 0 1 2 3 4 5
}

// ExampleSystem_JoinCtx joins a dimension with a fact input and counts
// matches.
func ExampleSystem_JoinCtx() {
	sys, err := wlpm.New(wlpm.WithCapacity(64 << 20))
	if err != nil {
		log.Fatal(err)
	}
	dim, _ := sys.Create("dim")
	fact, _ := sys.Create("fact")
	if err := wlpm.GenerateJoinInputs(10, 40, 1, dim.Append, fact.Append); err != nil {
		log.Fatal(err)
	}
	dim.Close()
	fact.Close()

	out, _ := sys.CreateSized("result", 2*wlpm.RecordSize)
	if err := sys.JoinCtx(context.Background(), wlpm.LazyHashJoin(), dim, fact, out, 1<<16); err != nil {
		log.Fatal(err)
	}
	fmt.Println("matches:", out.Len())
	// Output: matches: 40
}

// ExampleSystem_GroupByCtx rolls readings up per key with a write-limited
// sort underneath.
func ExampleSystem_GroupByCtx() {
	sys, err := wlpm.New(wlpm.WithCapacity(64 << 20))
	if err != nil {
		log.Fatal(err)
	}
	in, _ := sys.Create("readings")
	for i, k := range []uint64{1, 2, 1, 2, 1} {
		rec := wlpm.NewRecord(k)
		wlpm.SetAttr(rec, 3, uint64(10*(i+1)))
		if err := in.Append(rec); err != nil {
			log.Fatal(err)
		}
	}
	in.Close()

	out, _ := sys.Create("rollup")
	if err := sys.GroupByCtx(context.Background(), wlpm.LazySort(), in, 3, out, 1<<16); err != nil {
		log.Fatal(err)
	}
	it := out.Scan()
	defer it.Close()
	for {
		rec, err := it.Next()
		if err != nil {
			break
		}
		fmt.Printf("key=%d count=%d sum=%d\n",
			wlpm.Attr(rec, wlpm.GroupAttrKey),
			wlpm.Attr(rec, wlpm.GroupAttrCount),
			wlpm.Attr(rec, wlpm.GroupAttrSum))
	}
	// Output:
	// key=1 count=3 sum=90
	// key=2 count=2 sum=60
}

// ExampleIOProfile ranks two sort candidates without touching the device.
func ExampleIOProfile() {
	const t, m = 10000, 500 // buffers
	exms := wlpm.ProfileExternalMergeSort(t, m)
	segs := wlpm.ProfileSegmentSort(0.2, t, m)
	fmt.Printf("ExMS writes %.0f, SegS(0.2) writes %.0f\n", exms.Writes, segs.Writes)
	fmt.Println("SegS cheaper on a λ=15 medium:", segs.PriceP(10, 150, 1) < exms.PriceP(10, 150, 1))
	// Output:
	// ExMS writes 20000, SegS(0.2) writes 12000
	// SegS cheaper on a λ=15 medium: true
}
