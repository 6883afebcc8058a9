// Command wlserved serves the query engine over HTTP: it generates the
// declared tables on a simulated persistent-memory device, then accepts
// plan-DSL queries on /v1/query (results stream back as binary record
// frames between JSON control lines — see internal/server/wire.go; the
// body is not line-only text), plan explanations on /v1/explain and
// broker/device/tenant telemetry on /v1/metrics (both plain JSON). Each tenant runs in its own engine session — own
// working-memory grant, admission policy and collection namespace — and
// the memory broker admits tenants' queries weighted-fair by the
// tenants' weights, so one tenant's burst cannot starve the rest.
//
// Tenancy: with no -tenant flags the server runs open — any client
// names a tenant with the X-Wlpm-Tenant header and it is provisioned on
// first use with the default budget. -tenant flags close the set:
//
//	wlserved -addr :8080 -table dim=20000 -table fact=200000:dim \
//	    -tenant alice:s3cret:3 -tenant bob::1
//
// declares alice (token "s3cret", weight 3) and bob (no token — selected
// by header — weight 1). The full form is name[:token[:weight[:budget]]]
// with budget in bytes (0 = the -mem default).
//
// Graceful shutdown: on SIGINT/SIGTERM the server stops accepting, lets
// in-flight streams drain for -drain, then cancels their cursors (which
// releases grants and temporaries) and exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"wlpm"
	"wlpm/internal/cliutil"
	"wlpm/internal/record"
	"wlpm/internal/server"
)

const cmd = "wlserved"

// tenantFlags collects repeated -tenant flags: name[:token[:weight[:budget]]].
type tenantFlags []server.Tenant

func (t *tenantFlags) String() string { return fmt.Sprintf("%v", []server.Tenant(*t)) }

func (t *tenantFlags) Set(s string) error {
	parts := strings.SplitN(s, ":", 4)
	if parts[0] == "" {
		return fmt.Errorf("want name[:token[:weight[:budget]]], got %q", s)
	}
	tn := server.Tenant{Name: parts[0], Weight: 1}
	if len(parts) > 1 {
		tn.Token = parts[1]
	}
	if len(parts) > 2 && parts[2] != "" {
		w, err := strconv.Atoi(parts[2])
		if err != nil || w < 1 {
			return fmt.Errorf("bad weight in %q", s)
		}
		tn.Weight = w
	}
	if len(parts) > 3 && parts[3] != "" {
		b, err := strconv.ParseInt(parts[3], 10, 64)
		if err != nil || b < 0 {
			return fmt.Errorf("bad budget in %q", s)
		}
		tn.Budget = b
	}
	*t = append(*t, tn)
	return nil
}

func main() {
	var tables cliutil.TableFlags
	var tenants tenantFlags
	var (
		addr    = flag.String("addr", "localhost:8080", "listen address")
		mem     = flag.Float64("mem", 0.05, "default per-query memory grant as a fraction of the largest table")
		admit   = flag.Int("admit", 4, "system memory budget in per-query grants (concurrent admissions before queueing)")
		backend = flag.String("backend", "blocked", "blocked|pmfs|ramdisk|dynarray")
		block   = flag.Int("block", 1024, "block size in bytes")
		rdLat   = flag.Duration("read-latency", 10*time.Nanosecond, "read latency per cacheline")
		wrLat   = flag.Duration("write-latency", 150*time.Nanosecond, "write latency per cacheline")
		par     = flag.Int("p", 1, "worker parallelism (1 = serial)")
		batch   = flag.Int("batch", 0, "operator batch size (0 = engine default)")
		stat    = flag.Bool("stats", true, "collect column statistics before serving")
		seed    = flag.Uint64("seed", 42, "workload generator seed")
		drain   = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain window before in-flight cursors are cancelled")
		verbose = flag.Bool("v", false, "log one line per completed request")
	)
	flag.Var(&tables, "table", "table to generate: name=rows or name=rows:parent (repeatable)")
	flag.Var(&tenants, "tenant", "tenant to configure: name[:token[:weight[:budget]]] (repeatable; none = open mode)")
	flag.Parse()

	if len(tables) == 0 {
		cliutil.Usage(cmd, "at least one -table is required")
	}
	cliutil.CheckPositiveFloat(cmd, "mem", *mem)
	cliutil.CheckPositiveInt(cmd, "block", *block)
	cliutil.CheckPositiveInt(cmd, "admit", *admit)
	cliutil.CheckParallelism(cmd, *par)

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
		wlpm.WithMemoryBudget(int64(*admit)*budget),
	)
	if err != nil {
		cliutil.Fatal(cmd, err)
	}

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
		if *stat {
			if _, err := sys.Collect(c); err != nil {
				cliutil.Fatal(cmd, err)
			}
		}
		cols[spec.Name] = c
		fmt.Printf("table %-12s %d records × %d B\n", spec.Name, c.Len(), c.RecordSize())
	}

	// Tenants without an explicit budget serve with the -mem default.
	for i := range tenants {
		if tenants[i].Budget == 0 {
			tenants[i].Budget = budget
		}
	}

	cfg := server.Config{
		Engine:       sys.ServeEngine(cols),
		Tenants:      tenants,
		DrainTimeout: *drain,
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "wlserved: "+format+"\n", args...)
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		cliutil.Fatal(cmd, err)
	}

	mode := "open (tenants auto-provision via " + server.TenantHeader + ")"
	if len(tenants) > 0 {
		mode = fmt.Sprintf("%d configured tenant(s)", len(tenants))
	}
	fmt.Printf("serving on %s  backend=%s grant=%dB admissions=%d  %s\n",
		*addr, sys.Backend(), budget, *admit, mode)

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil {
			cliutil.Fatal(cmd, err)
		}
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "wlserved: %v: draining (up to %v)\n", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain+10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			cliutil.Fatal(cmd, err)
		}
		<-errc
	}
}
