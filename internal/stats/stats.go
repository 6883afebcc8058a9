// Package stats is the engine's column-statistics subsystem: per-attribute
// distinct-count sketches and equi-depth histograms collected in one
// streaming pass over a storage collection, cached per table, and consumed
// by the physical planner in internal/exec.
//
// The planner's blind spots before this package existed were exactly the
// quantities estimated here: filter selectivities (previously fixed
// textbook constants), group counts (previously a caller-supplied
// GroupHint), and join cardinalities (previously "every probe matches").
// Collection is read-only — a scan of the base collection, never a write —
// so gathering statistics costs cheap reads, the currency the paper's
// write-limited algorithms are happy to spend.
//
// Accuracy, documented so tests can pin it:
//
//   - Distinct counts use a KMV (k minimum hash values) sketch with
//     k = SketchSize. Counts up to k are exact; beyond that the estimate's
//     relative standard error is ≈ 1/√(k−2) (~6% at k = 256). Tests allow
//     3σ ≈ 20%.
//   - Histograms are equi-depth over a SampleSize-value reservoir sample.
//     A cumulative-fraction estimate carries error O(1/HistogramBuckets)
//     from bucket granularity plus O(1/√SampleSize) sampling noise; tests
//     allow ±0.08 absolute on cumulative fractions. Columns with at most
//     SampleSize rows are sampled completely, leaving only the bucket
//     granularity term.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"

	"wlpm/internal/record"
	"wlpm/internal/storage"
)

// Sketch and histogram sizing. The whole per-column state is a few KiB, so
// collecting a ten-attribute table costs tens of KiB of DRAM — negligible
// next to any operator budget.
const (
	// SketchSize is k of the KMV distinct sketch.
	SketchSize = 256
	// SampleSize is the per-attribute reservoir feeding histogram bounds.
	SampleSize = 1024
	// HistogramBuckets is the number of equi-depth buckets.
	HistogramBuckets = 64
)

// Table is the collected statistics of one collection (or, after the
// planner's transforms, of one intermediate result).
type Table struct {
	// Name of the collection the statistics were collected from.
	Name string
	// Rows is the row count the statistics describe.
	Rows int
	// Cols holds one entry per 8-byte attribute of the schema.
	Cols []Column
}

// Column is the statistics of one attribute.
type Column struct {
	// Min and Max are the exact value bounds seen during collection.
	Min, Max uint64
	// Distinct is the estimated distinct-value count (exact when the
	// column has at most SketchSize distinct values).
	Distinct int
	// Hist is the equi-depth histogram of the value distribution.
	Hist Histogram
}

// Col returns the statistics of attribute attr, or nil when the table is
// unknown or the attribute is outside the collected schema. All planner
// call sites go through this nil-safe accessor.
func (t *Table) Col(attr int) *Column {
	if t == nil || attr < 0 || attr >= len(t.Cols) {
		return nil
	}
	return &t.Cols[attr]
}

// --- Selectivity estimators ---

// FracEq estimates the fraction of rows with value exactly v: the uniform
// 1/Distinct within the observed [Min, Max] bounds, zero outside them.
func (c *Column) FracEq(v uint64) float64 {
	if c == nil || c.Distinct <= 0 || v < c.Min || v > c.Max {
		return 0
	}
	return 1 / float64(c.Distinct)
}

// FracLE estimates the fraction of rows with value ≤ v from the
// equi-depth histogram, interpolating linearly inside the bucket v falls
// into.
func (c *Column) FracLE(v uint64) float64 {
	if c == nil {
		return 0
	}
	return c.Hist.FracLE(v)
}

// FracLT estimates the fraction of rows with value < v.
func (c *Column) FracLT(v uint64) float64 {
	f := c.FracLE(v) - c.FracEq(v)
	if f < 0 {
		return 0
	}
	return f
}

// Histogram is an equi-depth histogram: Bounds[i] is the inclusive upper
// bound of bucket i, each bucket holding an equal share of the rows. The
// lower bound of bucket 0 is the column minimum.
type Histogram struct {
	Lo     uint64
	Bounds []uint64
}

// FracLE is the estimated cumulative fraction of values ≤ v.
func (h Histogram) FracLE(v uint64) float64 {
	n := len(h.Bounds)
	if n == 0 {
		return 0
	}
	if v < h.Lo {
		return 0
	}
	if v >= h.Bounds[n-1] {
		return 1
	}
	// Buckets whose upper bound is ≤ v lie entirely below v — with heavy
	// duplicates many buckets share one bound, and all of them count —
	// then v interpolates inside the first bucket whose bound exceeds it.
	i := sort.Search(n, func(j int) bool { return h.Bounds[j] > v })
	lo := h.Lo
	if i > 0 {
		lo = h.Bounds[i-1]
	}
	hi := h.Bounds[i]
	interp := 1.0
	if hi > lo {
		interp = float64(v-lo) / float64(hi-lo)
	}
	f := (float64(i) + interp) / float64(n)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// --- Collection ---

// Collect streams collection c once and returns its statistics. The pass
// is read-only; its cost is one scan of the collection. The record size
// must be a whole number of 8-byte attributes.
func Collect(c storage.Collection) (*Table, error) {
	if c == nil {
		return nil, fmt.Errorf("stats: nil collection")
	}
	recSize := c.RecordSize()
	if recSize <= 0 || recSize%record.AttrSize != 0 {
		return nil, fmt.Errorf("stats: record size %d is not a whole number of %d-byte attributes", recSize, record.AttrSize)
	}
	attrs := recSize / record.AttrSize
	cols := make([]collector, attrs)
	for i := range cols {
		cols[i].init(i)
	}
	it := c.Scan()
	defer it.Close()
	rows := 0
	for {
		rec, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		rows++
		for i := range cols {
			cols[i].add(record.Attr(rec, i))
		}
	}
	t := &Table{Name: c.Name(), Rows: rows, Cols: make([]Column, attrs)}
	for i := range cols {
		t.Cols[i] = cols[i].finish(rows)
	}
	return t, nil
}

// collector is the streaming per-attribute state of one Collect pass.
type collector struct {
	min, max uint64
	any      bool
	sketch   kmv
	sample   reservoir
}

func (c *collector) init(attr int) {
	c.sketch = kmv{k: SketchSize}
	// Seed the reservoir's deterministic generator per attribute so
	// repeated collections of the same data give identical statistics.
	c.sample = reservoir{cap: SampleSize, rng: 0x9e3779b97f4a7c15 ^ uint64(attr+1)}
}

func (c *collector) add(v uint64) {
	if !c.any || v < c.min {
		c.min = v
	}
	if !c.any || v > c.max {
		c.max = v
	}
	c.any = true
	c.sketch.add(mix(v))
	c.sample.add(v)
}

func (c *collector) finish(rows int) Column {
	col := Column{Min: c.min, Max: c.max, Distinct: c.sketch.estimate()}
	if col.Distinct > rows {
		col.Distinct = rows
	}
	col.Hist = buildHistogram(c.sample.vals, c.min, HistogramBuckets)
	return col
}

// mix is the splitmix64 finalizer: a cheap 64-bit mixer whose output is
// uniform enough for the KMV estimate.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// kmv keeps the k smallest distinct hash values seen. With fewer than k
// distinct values the count is exact; beyond that the k-th smallest hash
// locates the distinct density of the hash space.
type kmv struct {
	k    int
	vals []uint64 // ascending, distinct, len ≤ k
}

func (s *kmv) add(h uint64) {
	n := len(s.vals)
	if n == s.k && h >= s.vals[n-1] {
		return
	}
	i := sort.Search(n, func(j int) bool { return s.vals[j] >= h })
	if i < n && s.vals[i] == h {
		return
	}
	if n < s.k {
		s.vals = append(s.vals, 0)
		copy(s.vals[i+1:], s.vals[i:n])
	} else {
		copy(s.vals[i+1:], s.vals[i:n-1])
	}
	s.vals[i] = h
}

func (s *kmv) estimate() int {
	n := len(s.vals)
	if n < s.k {
		return n
	}
	frac := float64(s.vals[n-1]) / float64(math.MaxUint64)
	if frac <= 0 {
		return n
	}
	return int(float64(s.k-1)/frac + 0.5)
}

// reservoir is algorithm-R reservoir sampling with a deterministic
// xorshift64 generator, so collection is reproducible.
type reservoir struct {
	cap  int
	vals []uint64
	seen uint64
	rng  uint64
}

func (r *reservoir) next() uint64 {
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	return r.rng
}

func (r *reservoir) add(v uint64) {
	r.seen++
	if len(r.vals) < r.cap {
		r.vals = append(r.vals, v)
		return
	}
	if j := r.next() % r.seen; j < uint64(r.cap) {
		r.vals[j] = v
	}
}

// buildHistogram sorts the sample (in place) and takes equi-depth bucket
// bounds from its quantiles.
func buildHistogram(sample []uint64, lo uint64, buckets int) Histogram {
	if len(sample) == 0 || buckets <= 0 {
		return Histogram{}
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	if buckets > len(sample) {
		buckets = len(sample)
	}
	bounds := make([]uint64, buckets)
	for b := 0; b < buckets; b++ {
		bounds[b] = sample[((b+1)*len(sample)-1)/buckets]
	}
	return Histogram{Lo: lo, Bounds: bounds}
}

// --- Planner transforms ---
//
// The planner propagates base-table statistics through its plan tree with
// the transforms below. They follow the classic no-correlation assumption:
// value distributions survive row-count changes, distinct counts are only
// clamped, never rescaled.

// WithRows returns a copy of t describing rows rows, with each column's
// distinct count clamped to the new row count; a negative count describes
// no rows. Nil-safe.
func (t *Table) WithRows(rows int) *Table {
	if t == nil {
		return nil
	}
	rows = max(rows, 0)
	d := &Table{Name: t.Name, Rows: rows, Cols: append([]Column(nil), t.Cols...)}
	for i := range d.Cols {
		if d.Cols[i].Distinct > rows {
			d.Cols[i].Distinct = rows
		}
	}
	return d
}

// Restrict returns a copy of t describing rows rows where column attr is
// additionally known to lie in [lo, hi] — the shape of the table that
// survives a range (or equality) filter. Unlike WithRows, which only
// clamps distinct counts, Restrict propagates the predicate's bounds
// into the surviving column: Min/Max tighten to the intersection, the
// equi-depth histogram is clipped to the surviving buckets (interior
// bounds keep their quantile positions, so depths stay approximately
// equal up to the two boundary buckets), and the distinct count scales
// by the histogram mass of the surviving range. lo > hi denotes an
// empty range (e.g. "< 0"). Nil-safe; columns other than attr are only
// distinct-clamped, as before.
func (t *Table) Restrict(attr int, lo, hi uint64, rows int) *Table {
	d := t.WithRows(rows)
	if d == nil || attr < 0 || attr >= len(d.Cols) {
		return d
	}
	col := &d.Cols[attr]
	empty := lo > hi
	if !empty {
		if lo < col.Min {
			lo = col.Min
		}
		if hi > col.Max {
			hi = col.Max
		}
		empty = lo > hi
	}
	if empty {
		// Nothing survives: an impossible-range column. Keep the bounds
		// collapsed so every later estimate over it reports zero.
		col.Distinct = 0
		col.Hist = Histogram{}
		col.Min, col.Max = 1, 0
		return d
	}
	frac := col.Hist.FracLE(hi)
	if lo > 0 {
		frac -= col.Hist.FracLE(lo - 1)
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	// Scale from the pre-clamp distinct count: WithRows already clamped
	// col.Distinct to the surviving rows, and scaling that again would
	// double-count the reduction.
	if orig := t.Col(attr).Distinct; orig > 0 {
		scaled := int(float64(orig)*frac + 0.5)
		if scaled < 1 {
			scaled = 1
		}
		if scaled < col.Distinct {
			col.Distinct = scaled
		}
	}
	if col.Distinct > d.Rows {
		col.Distinct = d.Rows
	}
	col.Min, col.Max = lo, hi
	col.Hist = col.Hist.clip(lo, hi)
	return d
}

// clip restricts an equi-depth histogram to [lo, hi]: bounds outside the
// range drop, the surviving range's maximum becomes the final bound, and
// the lower edge moves to lo. The surviving interior bounds keep their
// quantile positions, so the clipped histogram stays approximately
// equi-depth over the surviving rows (exact up to the two boundary
// buckets).
func (h Histogram) clip(lo, hi uint64) Histogram {
	if len(h.Bounds) == 0 {
		return Histogram{Lo: lo, Bounds: []uint64{hi}}
	}
	bounds := make([]uint64, 0, len(h.Bounds)+1)
	for _, b := range h.Bounds {
		if b >= lo && b < hi {
			bounds = append(bounds, b)
		}
	}
	bounds = append(bounds, hi)
	return Histogram{Lo: lo, Bounds: bounds}
}

// Project returns the statistics of the projected schema: column attrs[i]
// of t becomes column i. Returns nil when t is unknown or any attribute is
// outside the collected schema.
func (t *Table) Project(attrs []int) *Table {
	if t == nil {
		return nil
	}
	d := &Table{Name: t.Name, Rows: t.Rows, Cols: make([]Column, len(attrs))}
	for i, a := range attrs {
		c := t.Col(a)
		if c == nil {
			return nil
		}
		d.Cols[i] = *c
	}
	return d
}

// Concat returns the statistics of the l‖r concatenated schema describing
// rows rows — the shape of a join output. Nil when either side is unknown.
func Concat(l, r *Table, rows int) *Table {
	if l == nil || r == nil {
		return nil
	}
	d := &Table{
		Name: l.Name + "+" + r.Name,
		Rows: rows,
		Cols: append(append([]Column(nil), l.Cols...), r.Cols...),
	}
	for i := range d.Cols {
		if d.Cols[i].Distinct > rows {
			d.Cols[i].Distinct = rows
		}
	}
	return d
}
