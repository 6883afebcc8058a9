package exec

import (
	"fmt"
	"strings"

	"wlpm/internal/aggregate"
	"wlpm/internal/record"
	"wlpm/internal/storage"
)

// One chain, three placements. Consecutive Filter and Project steps of a
// plan compile to one chain in normal form, and where that chain runs is
// fixed by what it sits on — by the plan's shape, never by a setting:
//
//   - emit: over a blocking producer with a serial emit path (Join,
//     GroupBy) the producer absorbs the chain and applies it where it
//     emits, so its temp — or the plan output, at the root — is a stored
//     collection of the chain's width and row count that consumers read
//     by block chunk and re-read without re-applying anything (a cursor
//     pulling a fed group-by runs the chain iterator over its intake's
//     stream instead, the partials widened to result records first,
//     Sort.Open). A GroupBy applies it through a storage.Sink; a Join is
//     handed it as a match function over each match's (left, right)
//     halves (joins.Pairs), which reads the attributes it keeps from the
//     half that holds them, so no joined row is built. OrderBy absorbs
//     nothing: its final merge is range-parallel at P > 1, and a sink
//     would serialize it.
//   - view: over a stored source (a base table, an OrderBy's sorted
//     output) and under a blocking consumer, the chain is a zero-write
//     collection view the consumer re-scans (fuse.go).
//   - stream: anywhere else the Stream operator applies it chunk by
//     chunk, with the chain iterator a view's scan runs (scan.go).
//
// Next to the chain's three placements, the result a chain is applied
// to has two homes, decided by price rather than shape (exec.go): stored
// in the producer's temp, or fed — emitted, through the absorbed chain,
// straight into the intake of the sort above. The emit placement serves
// both: the destination is the temp, the plan output or the intake, and
// the chain cannot tell — except that a join feeding a group-by folds
// each match into its intake from the two halves (fold), with no row of
// the chain's width built either.
//
// The compiler writes one chain step of its own: under a sort or
// group-by, a chain over a join has a projection of the join's left input
// to the attributes it reads put beneath the join (build-side narrowing,
// reorder.go). That step takes whichever placement its position gives
// it — a view of a base table or filter view, an absorbed emit over a
// join or group-by, a stream over anything else — so a narrower build
// side never costs a write of its own.
//
// Two pieces implement all three: the per-match function an emit
// placement calls (match, and fold for a fed group-by) and the chunk
// kernel (window, run by chainIterator) behind the view and the stream. Under MaterializeEveryStep, the
// materialize-everything reference, no step is absorbed: each gets a
// Stream and a barrier of its own.

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

// match compiles the chain over left‖right pairs — a join's matches,
// split at lsize bytes, a whole number of attributes; or whole records,
// as the left half with rsize 0 — into the function an emit placement
// calls for each: it calls emit with the chain's output for the pair, or
// not at all when a predicate drops it. Every attribute the chain reads
// is located at compile time in the half that holds it, so a projecting
// chain copies the attributes it keeps and nothing else; one that does
// not project emits the two halves concatenated.
func (c *chain) match(lsize, rsize int, emit func(rec []byte) error) func(left, right []byte) error {
	keep := c.pairMatchers(lsize)
	at := make([]pairAttr, len(c.attrs))
	for i, a := range c.attrs {
		at[i] = locate(a, lsize)
	}
	project := c.attrs != nil
	buf := make([]byte, c.width(lsize+rsize))
	return func(left, right []byte) error {
		for _, m := range keep {
			if !m(left, right) {
				return nil
			}
		}
		if !project {
			copy(buf, left)
			copy(buf[lsize:], right)
		}
		for i, a := range at {
			record.SetAttr(buf, i, a.load(left, right))
		}
		return emit(buf)
	}
}

// fold compiles the chain, followed by the partial a fed group-by takes
// of its output, over left‖right pairs split at lsize bytes, a whole
// number of attributes: it reads the group key and the aggregated
// attribute of the chain's output from the halves that hold them and
// hands the two to f, so no row is built for a pair at all.
func (c *chain) fold(lsize int, f *aggregate.Feeder) func(left, right []byte) error {
	keep := c.pairMatchers(lsize)
	key, val := 0, f.Attr()
	if c.attrs != nil {
		key, val = c.attrs[key], c.attrs[val]
	}
	k, v := locate(key, lsize), locate(val, lsize)
	return func(left, right []byte) error {
		for _, m := range keep {
			if !m(left, right) {
				return nil
			}
		}
		return f.Add(k.load(left, right), v.load(left, right))
	}
}

// pairMatchers are the chain's predicates over left‖right pairs split at
// lsize bytes.
func (c *chain) pairMatchers(lsize int) []func(left, right []byte) bool {
	ms := make([]func(left, right []byte) bool, len(c.preds))
	for i, p := range c.preds {
		at := locate(p.Attr, lsize)
		p.Attr = at.attr
		m := p.matcher()
		if at.right {
			ms[i] = func(_, right []byte) bool { return m(right) }
		} else {
			ms[i] = func(left, _ []byte) bool { return m(left) }
		}
	}
	return ms
}

// pairAttr is where attribute a of a left‖right pair lives: attribute
// attr of the half right names.
type pairAttr struct {
	right bool
	attr  int
}

// locate finds attribute a of a pair whose left half is lsize bytes.
func locate(a, lsize int) pairAttr {
	if l := lsize / record.AttrSize; a >= l {
		return pairAttr{right: true, attr: a - l}
	}
	return pairAttr{attr: a}
}

func (a pairAttr) load(left, right []byte) uint64 {
	if a.right {
		return record.Attr(right, a.attr)
	}
	return record.Attr(left, a.attr)
}

// sink returns the collection a GroupBy hands its sort as out so that
// dst receives the chain's output: a write-only sink of the raw width
// that closes dst when the sort closes it, or dst itself for the empty
// chain.
func (c *chain) sink(dst storage.Collection, raw int) storage.Collection {
	if c.empty() {
		return dst
	}
	match := c.match(raw, 0, dst.Append)
	return storage.NewSink("emit("+dst.Name()+")", raw, func(rec []byte) error { return match(rec, nil) }, dst.Close)
}

// window is the chain's kernel: one window of source records in, the
// chain's output for that window out. A chain that does not project
// returns a selection vector aliasing the input records (the input
// itself when it does not filter either); a projecting chain copies
// into a buffer the window owns. Both are grown to whatever the input
// holds, on the first run that needs them, so a surviving record is
// never dropped and a window that never runs allocates nothing. Either
// way the result is valid until the next run, or the input's own expiry
// if that comes first.
type window struct {
	match []func(rec []byte) bool
	attrs []int
	width int
	sel   [][]byte
	out   [][]byte // views over one owned buffer, projecting chains only
}

// newWindow compiles c over raw-byte records.
func (c *chain) newWindow(raw int) *window {
	return &window{match: c.matchers(), attrs: c.attrs, width: c.width(raw)}
}

func (w *window) run(recs [][]byte) [][]byte {
	in := len(recs)
	if len(w.match) > 0 {
		if cap(w.sel) < in {
			w.sel = make([][]byte, 0, in)
		}
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
	if in > len(w.out) {
		buf := make([]byte, w.width*in)
		w.out = make([][]byte, in)
		for i := range w.out {
			w.out[i] = buf[i*w.width : (i+1)*w.width]
		}
	}
	for i, rec := range recs {
		projectInto(w.out[i], rec, w.attrs)
	}
	return w.out[:len(recs)]
}

// projectInto copies the chosen 8-byte attributes of rec into buf, in
// order.
func projectInto(buf, rec []byte, attrs []int) {
	for i, a := range attrs {
		copy(buf[i*record.AttrSize:(i+1)*record.AttrSize], rec[a*record.AttrSize:(a+1)*record.AttrSize])
	}
}
