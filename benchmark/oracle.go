package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"wlpm"
	"wlpm/internal/storage"
)

// The oracle: a deliberately naive in-memory executor — flat slices,
// sort.Slice, a map join, a map group-by; no device, no budgets —
// computed once per run from the same seeded generators the tables were
// loaded from. Every timed op's output is checked against it after the
// op's clock and counter snapshots, so verification never enters a
// metric.

const recSize = wlpm.RecordSize

// expect is what an op's output must look like: its row count and a
// digest — in-order FNV-64a where the order is part of the contract
// (queries, serve streams), an order-independent sum of per-record
// hashes where it is not (sort and join kernel outputs).
type expect struct {
	rows   int
	digest uint64
}

// genRecords is the sort input: n records with permuted unique keys,
// flat.
func genRecords(n int, seed uint64) ([]byte, error) {
	buf := make([]byte, 0, n*recSize)
	err := wlpm.GenerateRecords(n, seed, func(rec []byte) error {
		buf = append(buf, rec...)
		return nil
	})
	return buf, err
}

// genJoin is the star schema: nDim unique-keyed dimension records and
// nFact fact records whose keys are foreign keys into dim.
func genJoin(nDim, nFact int, seed uint64) (dim, fact []byte, err error) {
	dim = make([]byte, 0, nDim*recSize)
	fact = make([]byte, 0, nFact*recSize)
	err = wlpm.GenerateJoinInputs(nDim, nFact, seed,
		func(rec []byte) error { dim = append(dim, rec...); return nil },
		func(rec []byte) error { fact = append(fact, rec...); return nil })
	return dim, fact, err
}

// wordHash digests one record eight bytes at a time (FNV-1a's mixing on
// words): cheap enough to run over every kernel output between ops.
func wordHash(rec []byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i+8 <= len(rec); i += 8 {
		h ^= binary.LittleEndian.Uint64(rec[i:])
		h *= 1099511628211
	}
	return h
}

// multiset sums wordHash over the width-byte records of flat.
func multiset(flat []byte, width int) expect {
	e := expect{rows: len(flat) / width}
	for i := 0; i+width <= len(flat); i += width {
		e.digest += wordHash(flat[i : i+width])
	}
	return e
}

// inOrder is the row count and in-order FNV-64a of flat.
func inOrder(flat []byte, width int) expect {
	h := fnv.New64a()
	h.Write(flat)
	return expect{rows: len(flat) / width, digest: h.Sum64()}
}

func (e expect) check(got expect, what string) error {
	if got != e {
		return fmt.Errorf("%s: %d rows digest %016x, oracle says %d rows digest %016x", what, got.rows, got.digest, e.rows, e.digest)
	}
	return nil
}

// joinOracle is dim ⋈ fact on the key: every match as the dim record
// followed by the fact record, in fact order.
func joinOracle(dim, fact []byte) []byte {
	byKey := make(map[uint64][]byte, len(dim)/recSize)
	for i := 0; i+recSize <= len(dim); i += recSize {
		rec := dim[i : i+recSize]
		byKey[wlpm.Key(rec)] = rec
	}
	out := make([]byte, 0, len(fact)*2)
	for i := 0; i+recSize <= len(fact); i += recSize {
		rec := fact[i : i+recSize]
		if d, ok := byKey[wlpm.Key(rec)]; ok {
			out = append(out, d...)
			out = append(out, rec...)
		}
	}
	return out
}

// starAttrs is query_star's projection of the 20-attribute join row back
// to the ten-attribute schema group-by needs.
var starAttrs = []int{0, 1, 12, 13, 14, 5, 16, 7, 18, 9}

// starOracle evaluates query_star: join, project, group by the key
// aggregating attribute 3 (count/sum/min/max in the GroupAttr slots),
// ordered by group key.
func starOracle(dim, fact []byte) expect {
	type agg struct{ count, sum, min, max uint64 }
	groups := make(map[uint64]*agg)
	joined := joinOracle(dim, fact)
	row := make([]byte, recSize)
	for i := 0; i+2*recSize <= len(joined); i += 2 * recSize {
		for j, a := range starAttrs {
			wlpm.SetAttr(row, j, wlpm.Attr(joined[i:i+2*recSize], a))
		}
		k, v := wlpm.Attr(row, 0), wlpm.Attr(row, 3)
		g := groups[k]
		if g == nil {
			g = &agg{min: v, max: v}
			groups[k] = g
		}
		g.count++
		g.sum += v
		g.min = min(g.min, v)
		g.max = max(g.max, v)
	}
	keys := make([]uint64, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	out := make([]byte, 0, len(keys)*recSize)
	for _, k := range keys {
		g := groups[k]
		rec := make([]byte, recSize)
		wlpm.SetAttr(rec, wlpm.GroupAttrKey, k)
		wlpm.SetAttr(rec, wlpm.GroupAttrCount, g.count)
		wlpm.SetAttr(rec, wlpm.GroupAttrSum, g.sum)
		wlpm.SetAttr(rec, wlpm.GroupAttrMin, g.min)
		wlpm.SetAttr(rec, wlpm.GroupAttrMax, g.max)
		out = append(out, rec...)
	}
	return inOrder(out, recSize)
}

// streamOracle evaluates serve_stream for threshold t: the fact rows
// with a1 >= t, projected to a0..a3, in table order.
func streamOracle(fact []byte, t uint64) expect {
	const width = 4 * 8
	out := make([]byte, 0, len(fact)/recSize*width)
	for i := 0; i+recSize <= len(fact); i += recSize {
		if wlpm.Attr(fact[i:i+recSize], 1) >= t {
			out = append(out, fact[i:i+width]...)
		}
	}
	return inOrder(out, width)
}

// sortedCopy orders a flat table by the record total order (key first,
// bytes on ties).
func sortedCopy(flat []byte) [][]byte {
	recs := make([][]byte, 0, len(flat)/recSize)
	for i := 0; i+recSize <= len(flat); i += recSize {
		recs = append(recs, flat[i:i+recSize])
	}
	sort.Slice(recs, func(a, b int) bool { return recordLess(recs[a], recs[b]) })
	return recs
}

func recordLess(a, b []byte) bool {
	if ka, kb := wlpm.Key(a), wlpm.Key(b); ka != kb {
		return ka < kb
	}
	return bytes.Compare(a, b) < 0
}

// pointOracle evaluates serve_point for threshold t over the sorted dim
// table: the first limit records with a1 < t.
func pointOracle(sortedDim [][]byte, t uint64, limit int) expect {
	out := make([]byte, 0, limit*recSize)
	for _, rec := range sortedDim {
		if len(out) == limit*recSize {
			break
		}
		if wlpm.Attr(rec, 1) < t {
			out = append(out, rec...)
		}
	}
	return inOrder(out, recSize)
}

// scanCollection digests a kernel output straight off the device:
// count plus multiset sum, and — when ordered is set — a check that the
// records ascend in the record total order.
func scanCollection(c wlpm.Collection, ordered bool) (expect, error) {
	it := c.Scan()
	defer it.Close()
	chunks, ok := it.(storage.ChunkIterator)
	if !ok {
		return expect{}, fmt.Errorf("%s: iterator %T has no NextChunk", c.Name(), it)
	}
	var got expect
	var prev []byte
	for {
		recs, err := chunks.NextChunk(batchSize)
		if err == io.EOF {
			return got, nil
		}
		if err != nil {
			return got, err
		}
		for _, rec := range recs {
			if ordered {
				if prev != nil && recordLess(rec, prev) {
					return got, fmt.Errorf("%s: record %d (key %d) sorts before its predecessor (key %d)", c.Name(), got.rows, wlpm.Key(rec), wlpm.Key(prev))
				}
				prev = append(prev[:0], rec...)
			}
			got.rows++
			got.digest += wordHash(rec)
		}
	}
}
