package exec

import (
	"fmt"
	"strings"

	"wlpm/internal/record"
	"wlpm/internal/storage"
)

// One chain, three placements. Consecutive Filter and Project steps of a
// plan compile to one chain in normal form, and where that chain runs is
// fixed by what it sits on — by the plan's shape, never by a setting:
//
//   - emit: over a blocking producer with a serial emit path (Join,
//     GroupBy) the producer absorbs the chain and applies it where it
//     emits, through a storage.Sink, so its temp — or the plan output, at
//     the root — is a stored collection of the chain's width and row count
//     that consumers read by block chunk and re-read without re-applying
//     anything (a cursor pulling a fed group-by runs the batch kernel over
//     its intake's stream instead, the partials widened to result records
//     first, Sort.Open). OrderBy absorbs nothing: its final merge is
//     range-parallel at P > 1, and a sink would serialize it.
//   - view: over a stored source (a base table, an OrderBy's sorted
//     output) and under a blocking consumer, the chain is a zero-write
//     collection view the consumer re-scans (fuse.go).
//   - stream: anywhere else the Stream operator applies it batch by
//     batch (scan.go).
//
// Next to the chain's three placements, the result a chain is applied
// to has two homes, decided by price rather than shape (exec.go): stored
// in the producer's temp, or fed — emitted, through the absorbed chain,
// straight into the intake of the sort above. The emit placement serves
// both: the sink's destination is the temp, the plan output or the
// intake, and the chain cannot tell.
//
// The compiler writes one chain step of its own: under a sort or
// group-by, a chain over a join has a projection of the join's left input
// to the attributes it reads put beneath the join (build-side narrowing,
// reorder.go). That step takes whichever placement its position gives
// it — a view of a base table or filter view, an absorbed emit over a
// join or group-by, a stream over anything else — so a narrower build
// side never costs a write of its own.
//
// Two pieces implement all three: the per-record closure an emit sink
// calls (apply) and the batch kernel (window) behind the view and the
// stream. Under MaterializeEveryStep, the materialize-everything
// reference, no step is absorbed: each gets a Stream and a barrier of its
// own.

// chain is a Filter/Project sequence in normal form over its source
// record: every predicate (its attribute mapped back through the
// projections beneath it), then one projection. The zero value is the
// empty chain. The operators that apply a chain embed it.
type chain struct {
	preds []Predicate
	attrs []int // nil keeps the source record
}

// absorber is an operator that takes the Filter/Project steps above it
// into the chain absorbed returns (nil: it takes none — an OrderBy).
type absorber interface {
	absorbed() *chain
}

func (c *chain) absorbed() *chain { return c }

func (c *chain) empty() bool { return c.preds == nil && c.attrs == nil }

// filter appends a predicate over the chain's current output.
func (c *chain) filter(p Predicate) {
	if c.attrs != nil {
		p.Attr = c.attrs[p.Attr]
	}
	c.preds = append(c.preds, p)
}

// project re-arranges the chain's current output to attrs.
func (c *chain) project(attrs []int) {
	mapped := append([]int(nil), attrs...)
	if c.attrs != nil {
		for i, a := range attrs {
			mapped[i] = c.attrs[a]
		}
	}
	c.attrs = mapped
}

// width is the chain's output record size over raw-byte input records.
func (c *chain) width(raw int) int {
	if c.attrs == nil {
		return raw
	}
	return len(c.attrs) * record.AttrSize
}

// String renders the chain ("" when empty) the same way in every
// placement, after whatever applies it: `Join[NLJ → project[0 1 12]](…)`,
// `Scan(t) → filter[a1 >= 5] → project[0 1]`.
func (c *chain) String() string {
	var b strings.Builder
	for _, p := range c.preds {
		fmt.Fprintf(&b, " → filter[%s]", p)
	}
	if c.attrs != nil {
		fmt.Fprintf(&b, " → project%v", c.attrs)
	}
	return b.String()
}

func (c *chain) matchers() []func(rec []byte) bool {
	ms := make([]func(rec []byte) bool, len(c.preds))
	for i, p := range c.preds {
		ms[i] = p.matcher()
	}
	return ms
}

// apply returns the chain as a function over raw records: it calls emit
// with the chain's output for a record, or not at all when a predicate
// drops it. The empty chain is emit itself.
func (c *chain) apply(emit func(rec []byte) error) func(rec []byte) error {
	if c.empty() {
		return emit
	}
	matchers := c.matchers()
	attrs := c.attrs
	var buf []byte
	if attrs != nil {
		buf = make([]byte, len(attrs)*record.AttrSize)
	}
	return func(rec []byte) error {
		for _, match := range matchers {
			if !match(rec) {
				return nil
			}
		}
		if buf == nil {
			return emit(rec)
		}
		projectInto(buf, rec, attrs)
		return emit(buf)
	}
}

// sink returns the collection the operator hands its algorithm as out
// so that dst receives the chain's output: a write-only sink of the raw
// width that closes dst when the algorithm closes it, or dst itself for
// the empty chain.
func (c *chain) sink(dst storage.Collection, raw int) storage.Collection {
	if c.empty() {
		return dst
	}
	return storage.NewSink("emit("+dst.Name()+")", raw, c.apply(dst.Append), dst.Close)
}

// window is the chain's batch kernel: one window of source records in,
// the chain's output for that window out. A chain that does not project
// returns a selection vector aliasing the input records (the input
// itself when it does not filter either); a projecting chain copies
// into a buffer the window owns, grown to whatever the input holds, so a
// surviving record is never dropped. Either way the result is valid
// until the next run, or the input's own expiry if that comes first.
type window struct {
	match []func(rec []byte) bool
	attrs []int
	width int
	sel   [][]byte
	out   *Batch // owned copies, projecting chains only
}

// newWindow compiles c over raw-byte records.
func (c *chain) newWindow(raw int) *window {
	return &window{match: c.matchers(), attrs: c.attrs, width: c.width(raw)}
}

func (w *window) run(recs [][]byte) [][]byte {
	in := len(recs)
	if len(w.match) > 0 {
		w.sel = w.sel[:0]
	next:
		for _, rec := range recs {
			for _, match := range w.match {
				if !match(rec) {
					continue next
				}
			}
			w.sel = append(w.sel, rec)
		}
		recs = w.sel
	}
	if w.attrs == nil {
		return recs
	}
	if w.out == nil || in > len(w.out.views) {
		w.out = newBatch(w.width, in)
	}
	for i, rec := range recs {
		projectInto(w.out.views[i], rec, w.attrs)
	}
	return w.out.views[:len(recs)]
}

// projectInto copies the chosen 8-byte attributes of rec into buf, in
// order.
func projectInto(buf, rec []byte, attrs []int) {
	for i, a := range attrs {
		copy(buf[i*record.AttrSize:(i+1)*record.AttrSize], rec[a*record.AttrSize:(a+1)*record.AttrSize])
	}
}
