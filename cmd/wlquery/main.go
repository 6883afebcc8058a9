// Command wlquery runs a query plan through the pipelined execution
// engine: it parses a tiny plan DSL, lets the cost-model physical
// planner choose the write-limited sort and join algorithms (unless the
// plan pins them), and prints the chosen plan next to the measured
// response and cacheline traffic.
//
// Plan DSL (stages piped left to right; see internal/exec):
//
//	scan(T)                          start from table T
//	filter(aN OP value)              OP: == != < <= > >=
//	project(aI,aJ,...)               keep 8-byte attributes, in order
//	join(PLAN)  join(PLAN; GJ)       equi-join on a0; optional pinned algorithm
//	groupby(aN) groupby(aN, groups=G; SegS:0.4)
//	orderby     orderby(ExMS)
//	limit(N)
//
// An algorithm is pinned by its spelling in the internal/sorts or
// internal/joins catalog: a name and its knobs, "ExMS", "SegS:0.4",
// "HybJ:0.5:0.5" (sorts.Spellings and joins.Spellings list them).
//
// Tables are generated: -table name=rows creates unique permuted keys
// 0..rows-1; -table name=rows:parent draws keys from parent's key
// domain (the paper's join microbenchmark shape).
//
// Usage:
//
//	wlquery -table dim=20000 -table fact=200000:dim \
//	    -plan 'scan(dim) | join(scan(fact)) | project(a0,a1,a12,a13,a14,a5,a16,a7,a18,a9) | groupby(a3) | orderby' \
//	    -mem 0.05 -p 4 -explain
//
// With -addr the plan runs on a wlserved instance instead: tables live
// server-side (declared when the server started), results stream back
// over HTTP, and Ctrl-C cancels the remote cursor:
//
//	wlquery -addr localhost:8080 -tenant alice -plan 'scan(dim) | orderby'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"wlpm"
	"wlpm/client"
	"wlpm/internal/cliutil"
	"wlpm/internal/record"
)

const cmd = "wlquery"

func main() {
	var tables cliutil.TableFlags
	var (
		addr        = flag.String("addr", "", "run the plan on a wlserved instance at this address instead of in-process")
		tenant      = flag.String("tenant", "", "tenant name for -addr (open-mode servers; default tenant when empty)")
		token       = flag.String("token", "", "bearer token for -addr (servers with configured tenants)")
		planSrc     = flag.String("plan", "", "plan DSL (required)")
		mem         = flag.Float64("mem", 0.05, "plan memory budget as a fraction of the largest table")
		backend     = flag.String("backend", "blocked", "blocked|pmfs|ramdisk|dynarray")
		block       = flag.Int("block", 1024, "block size in bytes")
		rdLat       = flag.Duration("read-latency", 10*time.Nanosecond, "read latency per cacheline")
		wrLat       = flag.Duration("write-latency", 150*time.Nanosecond, "write latency per cacheline")
		par         = flag.Int("p", 1, "worker parallelism (1 = serial)")
		batch       = flag.Int("batch", 0, "operator batch size (0 = engine default 1024; 1 = record-at-a-time)")
		timeout     = flag.Duration("timeout", 0, "abort the query after this long (0 = no limit); Ctrl-C cancels either way")
		stat        = flag.Bool("stats", true, "collect column statistics (ANALYZE) before planning; -stats=false plans from textbook defaults")
		explain     = flag.Bool("explain", false, "print the physical plan, algorithm choices and estimated vs actual rows")
		materialize = flag.Bool("materialize", false, "materialize after every operator (the naive baseline)")
		show        = flag.Int("show", 5, "result records to print")
		seed        = flag.Uint64("seed", 42, "workload generator seed")
	)
	flag.Var(&tables, "table", "table to generate: name=rows or name=rows:parent (repeatable)")
	flag.Parse()

	if *planSrc == "" {
		cliutil.Usage(cmd, "-plan is required")
	}
	if *addr != "" {
		runRemote(*addr, *tenant, *token, *planSrc, *explain, *show, *timeout)
		return
	}
	if len(tables) == 0 {
		cliutil.Usage(cmd, "at least one -table is required")
	}
	cliutil.CheckPositiveFloat(cmd, "mem", *mem)
	cliutil.CheckPositiveInt(cmd, "block", *block)
	cliutil.CheckParallelism(cmd, *par)
	if *show < 0 {
		cliutil.Usage(cmd, "-show must be non-negative, got %d", *show)
	}
	if *timeout < 0 {
		cliutil.Usage(cmd, "-timeout must be non-negative, got %v", *timeout)
	}
	if *batch < 0 {
		cliutil.Usage(cmd, "-batch must be non-negative, got %d", *batch)
	}

	// The run's cancellation context: Ctrl-C cancels, -timeout deadlines.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	byName, maxRows := cliutil.ValidateTables(cmd, tables)
	payload := cliutil.TablesPayload(tables)
	budget := int64(*mem * float64(maxRows) * record.Size)
	if budget < record.Size {
		budget = record.Size
	}
	sys, err := wlpm.New(
		wlpm.WithCapacity(payload*16+(64<<20)),
		wlpm.WithBackend(*backend),
		wlpm.WithBlockSize(*block),
		wlpm.WithLatencies(*rdLat, *wrLat),
		wlpm.WithParallelism(*par),
		wlpm.WithBatchSize(*batch),
		wlpm.WithAutoCollect(*stat),
		wlpm.WithMemoryBudget(2*budget),
	)
	if err != nil {
		cliutil.Fatal(cmd, err)
	}
	sess := sys.Session(wlpm.WithSessionBudget(budget))

	// Generate the tables in declaration order so parents exist first.
	cols := map[string]wlpm.Collection{}
	for _, spec := range tables {
		c, err := sys.Create(spec.Name)
		if err != nil {
			cliutil.Fatal(cmd, err)
		}
		if err := cliutil.GenerateTable(spec, byName[spec.Parent].Rows, *seed, c.Append); err != nil {
			cliutil.Fatal(cmd, err)
		}
		if err := c.Close(); err != nil {
			cliutil.Fatal(cmd, err)
		}
		// ANALYZE up front so the statistics pass is not part of the
		// measured run (subsequent plans hit the cache).
		if *stat {
			if _, err := sys.Collect(c); err != nil {
				cliutil.Fatal(cmd, err)
			}
		}
		cols[spec.Name] = c
	}

	lookup := wlpm.CollectionLookup(cols)
	q, err := sess.ParseQuery(*planSrc, func(name string) (wlpm.Collection, error) {
		c, err := lookup(name)
		if err != nil {
			return nil, fmt.Errorf("%w (declare it with -table)", err)
		}
		return c, nil
	})
	if err != nil {
		cliutil.Usage(cmd, "%v", err)
	}

	ex, err := q.ExplainGranted()
	if err != nil {
		cliutil.Fatal(cmd, err)
	}
	if *explain {
		fmt.Print(ex.String())
	}

	out, err := sys.CreateSized("result", ex.RecordSize)
	if err != nil {
		cliutil.Fatal(cmd, err)
	}
	sys.ResetStats()
	start := time.Now()
	if *materialize {
		err = q.RunMaterializedCtx(ctx, out)
	} else {
		ex, err = q.RunCtx(ctx, out)
	}
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			cliutil.Fatal(cmd, fmt.Errorf("query aborted: -timeout %v exceeded (partial work discarded, memory grant released)", *timeout))
		case errors.Is(err, context.Canceled):
			cliutil.Fatal(cmd, fmt.Errorf("query canceled (partial work discarded, memory grant released)"))
		}
		cliutil.Fatal(cmd, err)
	}
	wall := time.Since(start)
	st := sys.Stats()

	// After the run the choices carry the actual input rows observed at
	// each blocking operator's Open — print them next to the estimates so
	// planner misestimates are visible.
	if *explain && !*materialize {
		fmt.Println("after run (estimated vs actual rows):")
		fmt.Print(ex.String())
		fmt.Println()
	}

	mode := "pipelined"
	if *materialize {
		mode = "materialize-every-step"
	}
	fmt.Printf("mode           %s on %s (block %d B, P=%d)\n", mode, sys.Backend(), *block, *par)
	fmt.Printf("memory         %d B across %d blocking stage(s)\n", budget, ex.Stages)
	fmt.Printf("result         %d records × %d B\n", out.Len(), out.RecordSize())
	fmt.Printf("response       %v  (wall %v + sim I/O %v + soft %v)\n",
		(wall + st.SimTime()).Round(time.Microsecond), wall.Round(time.Microsecond),
		st.SimIOTime.Round(time.Microsecond), st.SoftTime.Round(time.Microsecond))
	fmt.Printf("cacheline I/O  %d writes, %d reads (λ=%.1f)\n", st.Writes, st.Reads, sys.Device().Lambda())

	if *show > 0 && out.Len() > 0 {
		n := *show
		if n > out.Len() {
			n = out.Len()
		}
		fmt.Printf("\nfirst %d record(s):\n", n)
		it := out.Scan()
		defer it.Close()
		for i := 0; i < n; i++ {
			rec, err := it.Next()
			if err != nil {
				cliutil.Fatal(cmd, err)
			}
			attrs := len(rec) / record.AttrSize
			fmt.Printf("  [")
			for a := 0; a < attrs; a++ {
				if a > 0 {
					fmt.Print(" ")
				}
				fmt.Printf("%d", record.Attr(rec, a))
			}
			fmt.Println("]")
		}
	}
}

// runRemote executes the plan on a wlserved instance through the client
// package, streaming the result back and printing the same summary the
// in-process path prints.
func runRemote(addr, tenant, token, planSrc string, explain bool, show int, timeout time.Duration) {
	if timeout < 0 {
		cliutil.Usage(cmd, "-timeout must be non-negative, got %v", timeout)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	var opts []client.SessionOption
	if token != "" {
		opts = append(opts, client.WithToken(token))
	}
	sess := client.Dial(addr).Session(tenant, opts...)
	q := sess.Query(planSrc)
	if explain {
		doc, err := q.Explain(ctx)
		if err != nil {
			cliutil.Fatal(cmd, err)
		}
		fmt.Print(doc.Explain.String())
	}

	start := time.Now()
	rows, err := q.Rows(ctx)
	if err != nil {
		cliutil.Fatal(cmd, err)
	}
	defer rows.Close()
	var first [][]byte
	n := int64(0)
	for rows.Next() {
		if len(first) < show {
			first = append(first, append([]byte(nil), rows.Record()...))
		}
		n++
	}
	if err := rows.Err(); err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			cliutil.Fatal(cmd, fmt.Errorf("query aborted: -timeout %v exceeded (server cancelled the cursor)", timeout))
		case errors.Is(err, context.Canceled):
			cliutil.Fatal(cmd, fmt.Errorf("query canceled (server cancelled the cursor)"))
		}
		cliutil.Fatal(cmd, err)
	}
	wall := time.Since(start)

	end := rows.Explain()
	if explain && end != nil && end.Explain != nil {
		fmt.Println("after run (estimated vs actual rows):")
		fmt.Print(end.Explain.String())
		fmt.Println()
	}
	fmt.Printf("mode           remote via %s\n", addr)
	fmt.Printf("result         %d records × %d B\n", n, rows.RecordSize())
	fmt.Printf("response       %v (client wall; includes admission and streaming)\n", wall.Round(time.Microsecond))

	if show > 0 && len(first) > 0 {
		fmt.Printf("\nfirst %d record(s):\n", len(first))
		for _, rec := range first {
			attrs := len(rec) / record.AttrSize
			fmt.Printf("  [")
			for a := 0; a < attrs; a++ {
				if a > 0 {
					fmt.Print(" ")
				}
				fmt.Printf("%d", record.Attr(rec, a))
			}
			fmt.Println("]")
		}
	}
}
