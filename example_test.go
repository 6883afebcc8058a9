package wlpm_test

import (
	"context"
	"fmt"
	"log"

	"wlpm"
)

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
	fmt.Println("SegS cheaper on a λ=15 medium:", segs.Price(10, 150) < exms.Price(10, 150))
	// Output:
	// ExMS writes 20000, SegS(0.2) writes 12000
	// SegS cheaper on a λ=15 medium: true
}
