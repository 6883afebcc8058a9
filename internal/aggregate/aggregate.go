// Package aggregate implements a write-limited sort-based group-by — the
// paper's §6 names aggregation as the natural next operation for
// write-limited processing. The operator sorts its input with any of the
// write-limited sort algorithms (inheriting their write profile) and
// folds the ascending stream into groups where the sort emits it: the
// sort's output is a sink, not a collection, so the only materialized
// intermediate is the sort's runs and the only output written is one
// record per group.
package aggregate

import (
	"fmt"

	"wlpm/internal/algo"
	"wlpm/internal/record"
	"wlpm/internal/sorts"
	"wlpm/internal/storage"
)

// Result is the output schema: one record per group with the benchmark
// record layout, carrying the aggregates in fixed attribute slots.
const (
	AttrGroupKey = 0 // the group key
	AttrCount    = 1 // number of records in the group
	AttrSum      = 2 // Σ of the aggregated attribute
	AttrMin      = 3 // minimum of the aggregated attribute
	AttrMax      = 4 // maximum of the aggregated attribute
)

// State is one group's running aggregates — the engine's only
// aggregation state: the sort-based fold adds to and renders this type,
// and the partials a folding intake combines are its rendering
// (Singleton, Combine). The zero value is the empty group.
type State struct {
	Count, Sum, Min, Max uint64
}

// Add accumulates one value of the aggregated attribute.
func (s *State) Add(v uint64) {
	if s.Count == 0 || v < s.Min {
		s.Min = v
	}
	if s.Count == 0 || v > s.Max {
		s.Max = v
	}
	s.Count++
	s.Sum += v
}

// Render writes the group's result record for key into buf
// (record.Size bytes): the aggregates in their slots, every other
// attribute zero.
func (s *State) Render(buf []byte, key uint64) {
	clear(buf)
	record.SetAttr(buf, AttrGroupKey, key)
	record.SetAttr(buf, AttrCount, s.Count)
	record.SetAttr(buf, AttrSum, s.Sum)
	record.SetAttr(buf, AttrMin, s.Min)
	record.SetAttr(buf, AttrMax, s.Max)
}

// Singleton renders into buf the partial aggregate of one benchmark
// record: its group's result record with attribute attr's value counted
// once — what a folding intake takes in place of the raw row.
func Singleton(buf, rec []byte, attr int) {
	v := record.Attr(rec, attr)
	(&State{Count: 1, Sum: v, Min: v, Max: v}).Render(buf, record.Key(rec))
}

// Combine merges the partial aggregate src into the partial dst of the
// same group, in place — counts and sums add, min and max fold — as a
// folding intake does to equal keys. A partial is never empty (Singleton
// counts its row), so min and max fold without a count check.
func Combine(dst, src []byte) {
	record.SetAttr(dst, AttrCount, record.Attr(dst, AttrCount)+record.Attr(src, AttrCount))
	record.SetAttr(dst, AttrSum, record.Attr(dst, AttrSum)+record.Attr(src, AttrSum))
	if lo := record.Attr(src, AttrMin); lo < record.Attr(dst, AttrMin) {
		record.SetAttr(dst, AttrMin, lo)
	}
	if hi := record.Attr(src, AttrMax); hi > record.Attr(dst, AttrMax) {
		record.SetAttr(dst, AttrMax, hi)
	}
}

// fold turns an ascending record stream into one result record per run
// of equal keys, appended to out as each group closes.
type fold struct {
	out  storage.Collection
	attr int
	key  uint64
	st   State
	buf  []byte
}

func (f *fold) add(rec []byte) error {
	k := record.Key(rec)
	if f.st.Count > 0 && k != f.key {
		if err := f.flush(); err != nil {
			return err
		}
	}
	f.key = k
	f.st.Add(record.Attr(rec, f.attr))
	return nil
}

// flush emits the open group, if any; a second flush is a no-op.
func (f *fold) flush() error {
	if f.st.Count == 0 {
		return nil
	}
	f.st.Render(f.buf, f.key)
	f.st = State{}
	return f.out.Append(f.buf)
}

// Fold returns the fold as the sink it is: appended an ascending stream
// of benchmark-schema records, it aggregates attribute attr over each
// run of equal keys and appends one result record per group to out;
// closing it emits the last group and closes out. It is what GroupBy
// hands its sort as the output; a group-by whose input is pushed needs
// none, because its folding intake's merges emit the groups themselves.
func Fold(attr int, out storage.Collection) (*storage.Sink, error) {
	if attr < 0 || attr >= record.NumAttrs {
		return nil, fmt.Errorf("aggregate: attribute %d out of schema (0..%d)", attr, record.NumAttrs-1)
	}
	if out.RecordSize() != record.Size {
		return nil, fmt.Errorf("aggregate: benchmark-schema records required (%d bytes)", record.Size)
	}
	f := &fold{out: out, attr: attr, buf: make([]byte, record.Size)}
	return storage.NewSink("fold("+out.Name()+")", record.Size, f.add, func() error {
		if err := f.flush(); err != nil {
			return err
		}
		return out.Close()
	}), nil
}

// GroupBy groups in by its key attribute and aggregates attribute attr,
// appending one result record per group to out in ascending group-key
// order. The write intensity of the operation is inherited from the sort
// algorithm: a lazy or low-intensity sort yields a write-limited
// aggregation. The sort never materializes its sorted output — it emits
// into the Fold sink — so at P > 1 its final merge runs serially, writing
// |groups| rather than |in| records.
func GroupBy(env *algo.Env, a sorts.Algorithm, in storage.Collection, attr int, out storage.Collection) error {
	if err := env.Validate(); err != nil {
		return err
	}
	if in.RecordSize() != record.Size {
		return fmt.Errorf("aggregate: benchmark-schema records required (%d bytes)", record.Size)
	}
	sink, err := Fold(attr, out)
	if err != nil {
		return err
	}
	if err := a.Sort(env, in, sink); err != nil {
		return err
	}
	// Every shipped sort closes its output after the last record, which
	// flushes the last group; a foreign Algorithm may not have.
	return sink.Close()
}
