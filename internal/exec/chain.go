package exec

import (
	"fmt"
	"strings"

	"wlpm/internal/record"
	"wlpm/internal/storage"
)

// Emit-side chains: fusion's other direction. A Filter/Project chain
// over a base table is a zero-write view (fuse.go) — there is no write
// to narrow. A chain over a blocking operator with a serial emit path
// (Join, GroupBy, HashAggregate) is instead absorbed by that operator at
// compile time and applied where it emits, through a storage.Sink: the
// operator's temp — or the plan output, at the root — is a stored
// collection of the chain's width and row count, which consumers read by
// block chunk and re-read without re-applying anything. OrderBy absorbs
// nothing: its final merge is range-parallel at P > 1, and a sink would
// serialize it. Neither does anything under MaterializeEveryStep, the
// materialize-everything reference.

// emitChain is the chain a blocking operator absorbed, in normal form
// over the operator's raw record: every predicate (its attribute mapped
// back through the projections beneath it), then one projection. The
// zero value is the empty chain. Operators embed it.
type emitChain struct {
	preds []Predicate
	attrs []int // nil keeps the raw record
}

// absorber is a blocking operator that applies a chain as it emits.
type absorber interface {
	absorbed() *emitChain
}

func (c *emitChain) absorbed() *emitChain { return c }

func (c *emitChain) empty() bool { return c.preds == nil && c.attrs == nil }

// filter appends a predicate over the chain's current output.
func (c *emitChain) filter(p Predicate) {
	if c.attrs != nil {
		p.Attr = c.attrs[p.Attr]
	}
	c.preds = append(c.preds, p)
}

// project re-arranges the chain's current output to attrs.
func (c *emitChain) project(attrs []int) {
	mapped := append([]int(nil), attrs...)
	if c.attrs != nil {
		for i, a := range attrs {
			mapped[i] = c.attrs[a]
		}
	}
	c.attrs = mapped
}

// width is the chain's output record size over raw-byte input records.
func (c *emitChain) width(raw int) int {
	if c.attrs == nil {
		return raw
	}
	return len(c.attrs) * record.AttrSize
}

// String renders the chain for the absorbing operator's Name ("" when
// empty), so a plan line shows where the narrowing happens.
func (c *emitChain) String() string {
	var b strings.Builder
	for _, p := range c.preds {
		fmt.Fprintf(&b, " → filter[%s]", p)
	}
	if c.attrs != nil {
		fmt.Fprintf(&b, " → project%v", c.attrs)
	}
	return b.String()
}

// apply returns the chain as a function over raw records: it calls emit
// with the chain's output for a record, or not at all when a predicate
// drops it. The empty chain is emit itself.
func (c *emitChain) apply(emit func(rec []byte) error) func(rec []byte) error {
	if c.empty() {
		return emit
	}
	matchers := make([]func(rec []byte) bool, len(c.preds))
	for i, p := range c.preds {
		matchers[i] = p.matcher()
	}
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
func (c *emitChain) sink(dst storage.Collection, raw int) storage.Collection {
	if c.empty() {
		return dst
	}
	return storage.NewSink("emit("+dst.Name()+")", raw, c.apply(dst.Append), dst.Close)
}

// projectInto copies the chosen 8-byte attributes of rec into buf, in
// order.
func projectInto(buf, rec []byte, attrs []int) {
	for i, a := range attrs {
		copy(buf[i*record.AttrSize:(i+1)*record.AttrSize], rec[a*record.AttrSize:(a+1)*record.AttrSize])
	}
}
