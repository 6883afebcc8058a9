// Aggregation scenario on the query engine: a metering workload — many
// readings per sensor — is filtered and rolled up to per-sensor
// count/sum/min/max through one wlpm.Query plan. Aggregation is the
// paper's named "next operation" for write-limited processing (§6): a
// pinned group-by inherits the write profile of its sort, while the
// planner's folds each sensor's readings in memory and, when the groups
// fit the stage budget, writes nothing but the result.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"wlpm"
)

const (
	readings = 150_000
	sensors  = 1_000
	budget   = int64(readings * wlpm.RecordSize / 20)
)

func load() (*wlpm.System, wlpm.Collection) {
	sys, err := wlpm.New(wlpm.WithCapacity(1<<30), wlpm.WithMemoryBudget(2*budget))
	if err != nil {
		log.Fatal(err)
	}
	in, err := sys.Create("readings")
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < readings; i++ {
		rec := wlpm.NewRecord(uint64(rng.Intn(sensors)))
		wlpm.SetAttr(rec, 3, uint64(rng.Intn(10_000))) // the reading value
		if err := in.Append(rec); err != nil {
			log.Fatal(err)
		}
	}
	if err := in.Close(); err != nil {
		log.Fatal(err)
	}
	return sys, in
}

func main() {
	fmt.Printf("rollup: %d readings over %d sensors, aggregating attribute 3\n\n", readings, sensors)
	fmt.Printf("%-28s %8s %10s %11s %10s   %s\n", "plan", "groups", "writes", "reads", "resp", "planner's pick")

	for _, row := range []struct {
		name  string
		build func(sess *wlpm.Session, in wlpm.Collection) *wlpm.Query
	}{
		{"groupby (pinned ExMS)", func(sess *wlpm.Session, in wlpm.Collection) *wlpm.Query {
			return sess.Query(in).GroupByWith(3, wlpm.ExternalMergeSort())
		}},
		{"groupby (pinned SegS 0.2)", func(sess *wlpm.Session, in wlpm.Collection) *wlpm.Query {
			return sess.Query(in).GroupByWith(3, wlpm.SegmentSort(0.2))
		}},
		{"groupby (planner, no hint)", func(sess *wlpm.Session, in wlpm.Collection) *wlpm.Query {
			return sess.Query(in).GroupBy(3)
		}},
		{"groupby (planner + hint)", func(sess *wlpm.Session, in wlpm.Collection) *wlpm.Query {
			return sess.Query(in).GroupHint(sensors).GroupBy(3)
		}},
		{"filter → groupby (hint)", func(sess *wlpm.Session, in wlpm.Collection) *wlpm.Query {
			return sess.Query(in).
				Filter(wlpm.Predicate{Attr: 3, Op: wlpm.CmpGe, Value: 5_000}).
				GroupHint(sensors).GroupBy(3)
		}},
	} {
		sys, in := load()
		// A session per run: the broker accounts the plan's memory and
		// the planner prices the plan at the session's grant.
		sess := sys.Session(wlpm.WithSessionBudget(budget))
		q := row.build(sess, in)
		ex, err := q.ExplainGranted()
		if err != nil {
			log.Fatal(err)
		}
		pick := "—"
		if len(ex.Choices) > 0 {
			c := ex.Choices[len(ex.Choices)-1]
			pick = c.Algorithm
			if c.Fed {
				pick += " ⇐ feed (fold)"
			}
		}
		out, err := sys.Create("rollup")
		if err != nil {
			log.Fatal(err)
		}
		sys.ResetStats()
		start := time.Now()
		if _, err := q.RunCtx(context.Background(), out); err != nil {
			log.Fatal(err)
		}
		wall := time.Since(start)
		st := sys.Stats()
		fmt.Printf("%-28s %8d %10d %11d %10v   %s\n",
			row.name, out.Len(), st.Writes, st.Reads,
			(wall + st.SimTime()).Round(time.Millisecond), pick)
	}
	fmt.Println("\nthe planner's fold holds the 1000 groups in DRAM and writes only the result;")
	fmt.Println("the pinned plans inherit the write profile of their sort")
}
