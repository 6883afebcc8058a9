// Concurrent-service scenario: one System serves several clients at
// once, the shape the redesigned API is built for. Each client owns a
// Session; every query requests a working-memory grant from the
// System's broker before it is planned, so however many clients pile
// on, the sum of the operator budgets never exceeds what the
// administrator configured with WithMemoryBudget — admission control
// queues the excess instead of oversubscribing the device host's DRAM.
//
// The example runs a burst of analytics queries from several sessions,
// streams one result through the database/sql-style Rows cursor, shows
// a fail-fast session bouncing off a saturated broker, and cancels a
// long query mid-sort — demonstrating that cancellation releases the
// grant and destroys the query's temporary collections.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"wlpm"
)

const (
	sensors  = 5_000
	readings = 100_000
	// Per-query working memory: 5% of the fact table. The System budget
	// admits two such grants, so a burst of four queries runs two at a
	// time, FIFO.
	perQuery = int64(readings * wlpm.RecordSize / 20)
)

func main() {
	sys, err := wlpm.New(
		wlpm.WithCapacity(1<<30),
		wlpm.WithMemoryBudget(2*perQuery),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("system budget %d B, per-query grant %d B (2 concurrent grants)\n\n", sys.MemoryBudget(), perQuery)

	dims, err := sys.Create("sensors")
	if err != nil {
		log.Fatal(err)
	}
	facts, err := sys.Create("readings")
	if err != nil {
		log.Fatal(err)
	}
	if err := wlpm.GenerateJoinInputs(sensors, readings, 3, dims.Append, facts.Append); err != nil {
		log.Fatal(err)
	}
	for _, c := range []wlpm.Collection{dims, facts} {
		if err := c.Close(); err != nil {
			log.Fatal(err)
		}
	}

	// query: join the metering fact table against the sensor dimension,
	// roll up per sensor, order by sensor id.
	query := func(sess *wlpm.Session) *wlpm.Query {
		return sess.Query(dims).Join(sess.Query(facts)).
			Project(0, 1, 12, 13, 14, 5, 16, 7, 18, 9).
			GroupBy(3).OrderBy()
	}

	// 1. A burst of clients. Each session blocks until the broker admits
	// its grant; no combination of arrivals can exceed the system budget.
	fmt.Println("burst: 4 sessions, 1 query each, admitted 2 at a time")
	var wg sync.WaitGroup
	start := time.Now()
	for client := 0; client < 4; client++ {
		sess := sys.Session(wlpm.WithSessionBudget(perQuery))
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			t := time.Now()
			rows, err := query(sess).Rows(context.Background())
			if err != nil {
				log.Fatal(err)
			}
			n := 0
			for rows.Next() {
				n++
			}
			if err := rows.Err(); err != nil {
				log.Fatal(err)
			}
			if err := rows.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  client %d: %5d groups in %8v (in use after close: %d B)\n",
				client, n, time.Since(t).Round(time.Millisecond), sys.MemoryInUse())
		}(client)
	}
	wg.Wait()
	fmt.Printf("burst done in %v, memory in use %d B\n\n", time.Since(start).Round(time.Millisecond), sys.MemoryInUse())

	// 2. Stream a result through the cursor: first five sensors by id.
	fmt.Println("streaming cursor: first 5 sensor rollups")
	rows, err := query(sys.Session(wlpm.WithSessionBudget(perQuery))).Rows(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 5 && rows.Next(); i++ {
		var id, count, sum uint64
		if err := rows.Scan(&id, &count, &sum); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  sensor %4d: %2d readings, Σ=%d\n", id, count, sum)
	}
	if err := rows.Close(); err != nil { // early close: grant released, temps destroyed
		log.Fatal(err)
	}

	// 3. Fail-fast admission: while one session holds the whole budget,
	// an AdmitFailFast session is bounced instead of queued.
	hog := sys.Session(wlpm.WithSessionBudget(sys.MemoryBudget()))
	held, err := query(hog).Rows(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	impatient := sys.Session(wlpm.WithAdmission(wlpm.AdmitFailFast))
	bounce := func() error {
		rows, err := query(impatient).Rows(context.Background())
		if err != nil {
			return err
		}
		rows.Close() //nolint:errcheck // unexpected admission: release before bailing
		return errors.New("fail-fast session was admitted while the budget was held")
	}
	if err := bounce(); errors.Is(err, wlpm.ErrAdmission) {
		fmt.Printf("\nfail-fast session while the budget is held: %v\n", err)
	} else {
		log.Fatal(err)
	}
	if err := held.Close(); err != nil {
		log.Fatal(err)
	}

	// 4. Cancellation mid-query: the context deadline fires inside the
	// join, the group-by's fold or the sort; the error surfaces, the
	// grant returns to the broker and the runs the fold or the sort
	// evicted so far are destroyed.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	deadline := func() error {
		rows, err := query(sys.Session(wlpm.WithSessionBudget(perQuery))).Rows(ctx)
		if err != nil {
			return err
		}
		rows.Close() //nolint:errcheck // unexpected completion: release before bailing
		return errors.New("expected a deadline error, got a row stream")
	}
	err = deadline()
	fmt.Printf("\ncancelled query: %v (memory in use: %d B)\n", err, sys.MemoryInUse())
	if !errors.Is(err, context.DeadlineExceeded) {
		log.Fatalf("expected a deadline error, got %v", err)
	}

	fmt.Println("\none budget, many clients: the broker rations the paper's scarce resource —")
	fmt.Println("operator working memory — the same way the cost model does within a plan")
}
