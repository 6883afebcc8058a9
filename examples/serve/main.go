// Serving scenario: the full network stack in one process — a wlserved-
// style server over a shared System, two tenants driving it through the
// client package, one of them walking away mid-stream. It shows the
// serving subsystem's contract end to end:
//
//   - each tenant runs in its own engine session (own grant, own
//     admission, own collection namespace), admitted by the memory
//     broker weighted-fair across tenants;
//   - results stream with backpressure and arrive byte-identical to
//     in-process execution;
//   - a client disconnect cancels the server-side cursor, releasing its
//     memory grant and temporaries — the metrics endpoint shows the
//     cancellation and the zeroed broker;
//   - graceful shutdown drains what is in flight.
//
// Run with: go run ./examples/serve
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"wlpm"
	"wlpm/client"
	"wlpm/internal/server"
)

const (
	nDim  = 2_000
	nFact = 40_000
	grant = int64(nFact) * wlpm.RecordSize / 20 // 5% of the fact table per query
	plan  = "scan(dim) | join(scan(fact); GJ) | orderby(ExMS)"
)

func main() {
	// --- server side: a system, two generated tables, two tenants ---
	sys, err := wlpm.New(
		wlpm.WithMemoryBudget(2*grant), // two grants: the tenants contend
		wlpm.WithCapacity(256<<20),
	)
	if err != nil {
		log.Fatal(err)
	}
	dim, err := sys.Create("dim")
	check(err)
	fact, err := sys.Create("fact")
	check(err)
	check(wlpm.GenerateJoinInputs(nDim, nFact, 42, dim.Append, fact.Append))
	check(dim.Close())
	check(fact.Close())

	srv, err := server.New(server.Config{
		Engine: sys.ServeEngine(map[string]wlpm.Collection{"dim": dim, "fact": fact}),
		Tenants: []server.Tenant{
			{Name: "alice", Token: "alice-token", Weight: 2, Budget: grant},
			{Name: "bob", Token: "bob-token", Weight: 1, Budget: grant},
		},
		DrainTimeout: 2 * time.Second,
	})
	check(err)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	addr := l.Addr().String()
	fmt.Printf("serving two tenants on %s\n\n", addr)

	// --- tenant alice: streams her query to the end ---
	alice := client.Dial(addr).Session("alice", client.WithToken("alice-token"))
	rows, err := alice.Query(plan).Rows(context.Background())
	check(err)
	var n int
	var firstKey uint64
	for rows.Next() {
		if n == 0 {
			check(rows.Scan(&firstKey))
		}
		n++
	}
	check(rows.Err())
	check(rows.Close())
	fmt.Printf("alice   streamed %d records of %d B (first key %d)\n", n, rows.RecordSize(), firstKey)

	// --- tenant bob: cancels mid-stream ---
	ctx, cancel := context.WithCancel(context.Background())
	brows, err := client.Dial(addr).Session("bob", client.WithToken("bob-token")).Query(plan).Rows(ctx)
	check(err)
	got := 0
	for got < 5 && brows.Next() {
		got++
	}
	cancel() // walk away: the server cancels bob's cursor
	brows.Close()
	fmt.Printf("bob     read %d records, then disconnected mid-stream\n", got)

	// The server unwinds bob's query: grant released, temps destroyed.
	for sys.MemoryInUse() != 0 {
		time.Sleep(time.Millisecond)
	}
	fmt.Printf("broker  %d B granted after bob's disconnect\n\n", sys.MemoryInUse())

	// --- the metrics endpoint tells the story ---
	met, err := alice.Metrics(context.Background())
	check(err)
	for _, name := range []string{"alice", "bob"} {
		tm := met.Tenants[name]
		fmt.Printf("metrics %-6s queries=%d completed=%d cancelled=%d rows=%d (weight %d)\n",
			name, tm.Queries, tm.Completed, tm.Cancelled, tm.Rows, tm.Weight)
	}
	fmt.Printf("metrics broker  in_use=%d high_water=%d of %d B\n",
		met.Broker.InUse, met.Broker.HighWater, met.Broker.Total)

	// --- graceful shutdown ---
	check(srv.Shutdown(context.Background()))
	check(<-done)
	fmt.Println("\nserver drained and stopped")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
