package main

import (
	"context"
	"fmt"
	"net"
	"runtime/metrics"
	"syscall"
	"time"

	"wlpm"
	"wlpm/client"
	"wlpm/internal/server"
)

// scale is the table cardinalities. Shapes follow the paper (permuted
// unique keys; a foreign-key fact table, ten fact rows per dim row);
// -smoke shrinks the cardinalities and keeps the selectivities.
type scale struct{ in, dim, fact int }

var fullScale = scale{in: 60_000, dim: 10_000, fact: 100_000}

func smokeConfig(seed uint64, outDir string) config {
	return config{
		sc:   scale{in: fullScale.in / 20, dim: fullScale.dim / 20, fact: fullScale.fact / 20},
		seed: seed, seconds: refSeconds, setups: 1, fixed: 3, outDir: outDir,
	}
}

// Device and engine settings every workload shares. Spin mode stays off
// (as in wlserved): wall time is host time, and the modelled device time
// is reported beside it from the counters.
const (
	blockSize    = 1024
	readLatency  = 10 * time.Nanosecond
	writeLatency = 150 * time.Nanosecond
	batchSize    = 1024
	memFraction  = 0.05 // M: 5 % of the sort input / the join's left input / the largest table
)

// rig is one set-up of a workload: the system with its generated
// tables and, for the serve workloads, the HTTP stack on loopback.
type rig struct {
	w      *workload
	cfg    config
	sys    *wlpm.System
	cols   map[string]wlpm.Collection
	budget int64 // operator budget (kernels) or per-query grant (queries)

	sess   *wlpm.Session // in-process session (query_star, ladder rungs)
	lookup func(name string) (wlpm.Collection, error)

	srv    *server.Server
	served chan error
	remote []*client.Session // one per closed-loop client; client i is tenant tenantName(i)

	want oracle
	bufs [][]byte // per-client row buffer, reused across ops
	plan planStats
}

// setUp is what setup_s times: table generation, statistics collection
// and server start — everything before the first warm-up op.
func setUp(ctx context.Context, w *workload, cfg config) (*rig, error) {
	r := &rig{w: w, cfg: cfg, cols: make(map[string]wlpm.Collection), bufs: make([][]byte, w.clients)}
	sc := cfg.sc
	payload := int64(sc.dim+sc.fact) * recSize
	if w.sortInput {
		payload = int64(sc.in) * recSize
	}
	r.budget = int64(memFraction * float64(w.memRows(sc)) * recSize)
	opts := []wlpm.Option{
		wlpm.WithCapacity(payload*16 + (64 << 20)),
		wlpm.WithBackend("blocked"),
		wlpm.WithBlockSize(blockSize),
		wlpm.WithLatencies(readLatency, writeLatency),
		wlpm.WithParallelism(w.par),
		wlpm.WithBatchSize(batchSize),
	}
	if w.grants > 0 {
		opts = append(opts, wlpm.WithMemoryBudget(int64(w.grants)*r.budget))
	}
	sys, err := wlpm.New(opts...)
	if err != nil {
		return nil, err
	}
	r.sys = sys
	if w.sortInput {
		if err := r.load([]string{"in"}, func(emit []func([]byte) error) error {
			return wlpm.GenerateRecords(sc.in, cfg.seed, emit[0])
		}); err != nil {
			return nil, err
		}
	} else {
		if err := r.load([]string{"dim", "fact"}, func(emit []func([]byte) error) error {
			return wlpm.GenerateJoinInputs(sc.dim, sc.fact, cfg.seed, emit[0], emit[1])
		}); err != nil {
			return nil, err
		}
	}
	if w.kernel {
		return r, nil
	}
	for _, name := range sortedKeys(r.cols) {
		if _, err := sys.Collect(r.cols[name]); err != nil {
			return nil, err
		}
	}
	r.sess = sys.Session(wlpm.WithSessionBudget(r.budget))
	r.lookup = wlpm.CollectionLookup(r.cols)
	if w.grants > 0 {
		if err := r.startServer(ctx); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// load creates the named tables and fills them from one generator call.
func (r *rig) load(names []string, generate func(emit []func([]byte) error) error) error {
	emit := make([]func([]byte) error, len(names))
	for i, name := range names {
		c, err := r.sys.Create(name)
		if err != nil {
			return err
		}
		r.cols[name] = c
		emit[i] = c.Append
	}
	if err := generate(emit); err != nil {
		return err
	}
	for _, name := range names {
		if err := r.cols[name].Close(); err != nil {
			return err
		}
	}
	return nil
}

// startServer puts internal/server over the system on a loopback
// listener: one tenant per closed-loop client, each with the per-query
// grant, sharing a broker budget of w.grants grants. It returns once the
// server has answered a request: a Shutdown that overtakes Serve would
// leave the listener accepting forever.
func (r *rig) startServer(ctx context.Context) error {
	tenants := make([]server.Tenant, r.w.clients)
	for i := range tenants {
		tenants[i] = server.Tenant{Name: tenantName(i), Weight: r.w.weights[i], Budget: r.budget}
	}
	srv, err := server.New(server.Config{Engine: r.sys.ServeEngine(r.cols), Tenants: tenants})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.srv = srv
	r.served = make(chan error, 1)
	go func() { r.served <- srv.Serve(l) }()
	c := client.Dial(l.Addr().String())
	for i := range tenants {
		r.remote = append(r.remote, c.Session(tenantName(i)))
	}
	_, err = r.remote[0].Metrics(ctx)
	return err
}

func tenantName(client int) string { return fmt.Sprintf("t%d", client) }

// tearDown stops the server, waits for it, and checks that the run
// left nothing behind: no memory grant outstanding.
func (r *rig) tearDown(ctx context.Context) error {
	if r.srv != nil {
		if err := r.srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("server shutdown: %w", err)
		}
		select {
		case err := <-r.served:
			if err != nil {
				return fmt.Errorf("server: %w", err)
			}
		case <-ctx.Done():
			return fmt.Errorf("server did not stop: %w", ctx.Err())
		}
		r.srv = nil
	}
	if r.sess != nil {
		r.sess.Close()
	}
	if n := r.sys.MemoryInUse(); n != 0 {
		return fmt.Errorf("%d bytes of broker grants still held at the end of the run", n)
	}
	return nil
}

// usage is the host and device counters the benchmark meters work with:
// process CPU, bytes allocated, and the device's cacheline counters.
type usage struct {
	cpu   time.Duration
	alloc uint64
	dev   wlpm.Stats
}

func (u usage) sub(o usage) usage {
	return usage{cpu: u.cpu - o.cpu, alloc: u.alloc - o.alloc, dev: u.dev.Sub(o.dev)}
}

func (u usage) add(o usage) usage {
	return usage{cpu: u.cpu + o.cpu, alloc: u.alloc + o.alloc, dev: u.dev.Add(o.dev)}
}

func (r *rig) usage() usage {
	return usage{cpu: cpuTime(), alloc: allocBytes(), dev: r.sys.Stats()}
}

// cpuTime is the process's user+system CPU so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's maximum resident set in bytes (Linux reports
// kilobytes).
func peakRSS() uint64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return uint64(ru.Maxrss) << 10
}

// allocBytes is the cumulative heap allocation — MemStats.TotalAlloc
// without the stop-the-world read, so spans can afford it.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
