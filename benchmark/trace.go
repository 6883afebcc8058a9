package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The traced run records a span around every call the benchmark makes
// into a layer — the per-algorithm kernel calls, parse / open / drain,
// client first-row / drain — together with the host and device counter
// deltas at the same boundaries. Spans stay in memory until the run
// ends; spans inside the engine are a later change.

// span is one timed call into a layer. IDs are per run; Parent 0 means
// the op's root. Client and Op identify the op all its spans share.
type span struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Client     int    `json:"client"`
	Op         int    `json:"op"`
	Name       string `json:"name"`
	StartNs    int64  `json:"start_ns"` // since the run's trace began
	EndNs      int64  `json:"end_ns"`
	SelfNs     int64  `json:"self_ns"` // duration minus the part child spans cover
	CPUNs      int64  `json:"cpu_ns"`  // process user+sys CPU (all goroutines) over the span
	AllocBytes uint64 `json:"alloc_bytes"`
	Reads      uint64 `json:"cl_reads"`
	Writes     uint64 `json:"cl_writes"`
	ReadOps    uint64 `json:"read_ops"`
	WriteOps   uint64 `json:"write_ops"`
	ModelledNs int64  `json:"modelled_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer collects the spans of a run. Counters are process-wide: with
// two concurrent clients a span's deltas include the other client's
// work, its times do not.
type tracer struct {
	epoch time.Time
	usage func() usage

	mu    sync.Mutex
	spans []span
}

func newTracer(usage func() usage) *tracer {
	return &tracer{epoch: time.Now(), usage: usage}
}

// opTrace is the span stack of one op, owned by the client goroutine
// running it. A nil *opTrace is tracing switched off: start then
// records nothing, so traced and untraced ops run the same code.
type opTrace struct {
	t      *tracer
	client int
	op     int
	spans  []span
	stack  []int // indices into spans of the open ancestors
}

func (t *tracer) begin(client, op int) *opTrace {
	return &opTrace{t: t, client: client, op: op}
}

// start opens a span as a child of the innermost open span and returns
// the function that closes it.
func (o *opTrace) start(name string) (end func()) {
	if o == nil {
		return func() {}
	}
	idx := len(o.spans)
	parent := -1
	if len(o.stack) > 0 {
		parent = o.stack[len(o.stack)-1]
	}
	o.spans = append(o.spans, span{Parent: parent, Client: o.client, Op: o.op, Name: name})
	o.stack = append(o.stack, idx)
	before := o.t.usage()
	start := time.Since(o.t.epoch)
	return func() {
		end := time.Since(o.t.epoch)
		d := o.t.usage().sub(before)
		o.stack = o.stack[:len(o.stack)-1]
		s := &o.spans[idx]
		s.StartNs, s.EndNs = int64(start), int64(end)
		s.CPUNs, s.AllocBytes = int64(d.cpu), d.alloc
		s.Reads, s.Writes, s.ReadOps, s.WriteOps = d.dev.Reads, d.dev.Writes, d.dev.ReadOps, d.dev.WriteOps
		s.ModelledNs = int64(d.dev.SimIOOverlap + d.dev.SoftTime)
	}
}

// flush computes self times and hands the op's spans to the tracer. An
// op that failed between a start and its end leaves a span open; such an
// op's spans are dropped.
func (o *opTrace) flush() {
	if o == nil {
		return
	}
	for _, s := range o.spans {
		if s.EndNs == 0 {
			return
		}
	}
	for i := range o.spans {
		o.spans[i].SelfNs = int64(o.spans[i].dur())
	}
	for _, s := range o.spans {
		if s.Parent >= 0 {
			o.spans[s.Parent].SelfNs -= int64(s.dur())
		}
	}
	// Local indices become run-wide 1-based ids; a root's parent is 0.
	o.t.mu.Lock()
	base := len(o.t.spans) + 1
	for i, s := range o.spans {
		s.ID = base + i
		s.Parent += base
		if s.Parent < base {
			s.Parent = 0
		}
		o.t.spans = append(o.t.spans, s)
	}
	o.t.mu.Unlock()
}

// byName groups the collected spans.
func (t *tracer) byName() map[string][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string][]span)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// spanMedian is the median of f over the spans of one name.
func spanMedian(spans []span, f func(span) float64) float64 {
	v := make([]float64, len(spans))
	for i, s := range spans {
		v[i] = f(s)
	}
	return medianFloat(v)
}

func durMs(s span) float64 { return millis(s.dur()) }

// traceFile is the span file's layout.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}

// write stores the spans as out/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	doc := traceFile{Workload: workload, Seed: seed, Spans: t.spans}
	t.mu.Unlock()
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, writeJSON(path, doc)
}

// printLayerTable renders where the traced ops' time went: per span
// name, the calls per op, the median duration and self time, and self
// time's share of the op.
func (t *tracer) printLayerTable(w io.Writer) {
	groups := t.byName()
	ops := len(groups["op"])
	if ops == 0 {
		return
	}
	opMs := spanMedian(groups["op"], durMs)
	names := sortedKeys(groups)
	sort.SliceStable(names, func(a, b int) bool { return names[a] == "op" && names[b] != "op" })
	fmt.Fprintf(w, "  %-22s %9s %12s %12s %8s\n", "span", "calls/op", "median ms", "self ms", "of op")
	for _, name := range names {
		g := groups[name]
		self := spanMedian(g, func(s span) float64 { return millis(time.Duration(s.SelfNs)) })
		fmt.Fprintf(w, "  %-22s %9.2f %12.4f %12.4f %7.1f%%\n",
			name, float64(len(g))/float64(ops), spanMedian(g, durMs), self, 100*self/opMs)
	}
}
