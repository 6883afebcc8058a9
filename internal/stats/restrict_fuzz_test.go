package stats

import (
	"math"
	"testing"

	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/storage/blocked"
)

// FuzzRestrict restricts a collected table by arbitrary bounds: the plan
// DSL's predicate constants reach Restrict through the planner's
// predBounds, so whatever attribute, range and row count arrive, it must
// not panic, and the restricted table must stay an estimate the planner
// can use — the rows it was given (none for a negative count), every
// column's Distinct at most those rows, the
// restricted column's Min ≤ Max unless its range is empty, and every
// fraction (FracEq, FracLE, FracLT, at the bounds, the column's edges
// and probe) in [0, 1]. The seed corpus is testdata/fuzz/FuzzRestrict.
func FuzzRestrict(f *testing.F) {
	// 3 000 rows of record.Fill's attributes over keys 0..2 999 with every
	// third key repeated: distinct counts under and over SketchSize, and
	// histograms that are sampled (over SampleSize rows) and exact.
	dev := pmem.MustOpen(pmem.Config{Capacity: 1 << 20})
	c, err := blocked.New(dev, 0).Create("fuzz", record.Size)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		k := uint64(i*7919) % 3000
		if k%3 == 0 {
			k = k / 3
		}
		if err := c.Append(record.New(k)); err != nil {
			f.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		f.Fatal(err)
	}
	tbl, err := Collect(c)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(0, uint64(0), uint64(1499), 1500, uint64(700))
	f.Add(1, uint64(500), uint64(500), 3, uint64(500))
	f.Add(3, uint64(1), uint64(0), 0, uint64(0))
	f.Add(9, uint64(10), uint64(math.MaxUint64), 2999, uint64(math.MaxUint64))
	f.Add(-1, uint64(0), uint64(10), 5, uint64(3))
	f.Add(2, uint64(5000), uint64(9000), 1, uint64(6000))
	f.Fuzz(func(t *testing.T, attr int, lo, hi uint64, rows int, probe uint64) {
		d := tbl.Restrict(attr, lo, hi, rows)
		if d == nil {
			t.Fatal("a collected table restricted to nil")
		}
		if want := max(rows, 0); d.Rows != want {
			t.Fatalf("restricted to %d rows, the table describes %d", rows, d.Rows)
		}
		for i := range d.Cols {
			col := &d.Cols[i]
			if col.Distinct > d.Rows {
				t.Errorf("a%d: %d distinct over %d rows", i, col.Distinct, d.Rows)
			}
			if i != attr && col.Min > col.Max {
				t.Errorf("a%d, not restricted: Min %d > Max %d", i, col.Min, col.Max)
			}
			if i == attr && col.Min > col.Max && lo <= hi && lo <= tbl.Cols[i].Max && hi >= tbl.Cols[i].Min {
				t.Errorf("a%d restricted to [%d, %d], which meets [%d, %d]: Min %d > Max %d",
					i, lo, hi, tbl.Cols[i].Min, tbl.Cols[i].Max, col.Min, col.Max)
			}
			for _, v := range []uint64{0, lo, hi, lo - 1, hi + 1, col.Min, col.Max, probe, math.MaxUint64} {
				for name, frac := range map[string]float64{"FracEq": col.FracEq(v), "FracLE": col.FracLE(v), "FracLT": col.FracLT(v)} {
					if !(frac >= 0 && frac <= 1) {
						t.Errorf("a%d restricted to [%d, %d] over %d rows: %s(%d) = %v", i, lo, hi, rows, name, v, frac)
					}
				}
			}
		}
	})
}
