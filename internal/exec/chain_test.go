package exec

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"testing"

	"wlpm/internal/record"
	"wlpm/internal/sorts"
	"wlpm/internal/storage"
)

// The chain's batch kernel and its view placement are checked against a
// reference that shares none of their code: the plan's steps applied one
// at a time, in written order, to DRAM copies of the base records, then
// sort.Slice.

// pick is the reference projection.
func pick(rec []byte, attrs ...int) []byte {
	out := make([]byte, 0, len(attrs)*record.AttrSize)
	for _, a := range attrs {
		out = append(out, rec[a*record.AttrSize:(a+1)*record.AttrSize]...)
	}
	return out
}

// viewChains are Filter/Project chains over a base table, each with its
// step-by-step reference (nil drops the record). Every projection moves
// a duplicate-heavy attribute to the key position, so the sorts' byte
// tie-break is exercised; the last chain filters a column the projection
// beneath it moved.
var viewChains = []struct {
	name  string
	apply func(p *Plan) *Plan
	ref   func(rec []byte) []byte
}{
	{"project",
		func(p *Plan) *Plan { return p.Project(2, 0, 5) },
		func(rec []byte) []byte { return pick(rec, 2, 0, 5) }},
	{"filter-project",
		func(p *Plan) *Plan { return p.Filter(Predicate{Attr: 1, Op: Ge, Value: 100}).Project(2, 0) },
		func(rec []byte) []byte {
			if record.Attr(rec, 1) < 100 {
				return nil
			}
			return pick(rec, 2, 0)
		}},
	{"project-filter-project",
		func(p *Plan) *Plan {
			return p.Project(4, 1, 0).Filter(Predicate{Attr: 1, Op: Lt, Value: 700}).Project(0, 2)
		},
		func(rec []byte) []byte {
			rec = pick(rec, 4, 1, 0)
			if record.Attr(rec, 1) >= 700 {
				return nil
			}
			return pick(rec, 0, 2)
		}},
}

var viewSorts = []sorts.Algorithm{
	sorts.NewExternalMergeSort(), sorts.NewSelectionSort(),
	sorts.NewSegmentSort(0), sorts.NewSegmentSort(0.5), sorts.NewSegmentSort(1),
	sorts.NewHybridSort(0.5), sorts.NewLazySort(),
}

// TestChainViewSortedMatchesReference: Project, Filter→Project and
// Project→Filter→Project over a base table, sorted by every sort at
// P ∈ {1, 4}, are one Stream served to the sort as one view, whose
// output equals the sort.Slice reference and the materialize-every-step
// run byte for byte; opening and scanning the view writes nothing.
func TestChainViewSortedMatchesReference(t *testing.T) {
	const n = 3000
	for _, vc := range viewChains {
		r := newRig(t)
		in := r.create(t, "in", record.Size)
		if err := record.Generate(n, 21, in.Append); err != nil {
			t.Fatal(err)
		}
		if err := in.Close(); err != nil {
			t.Fatal(err)
		}
		base, err := storage.ReadAll(in)
		if err != nil {
			t.Fatal(err)
		}
		var refs [][]byte
		for _, rec := range base {
			if out := vc.ref(rec); out != nil {
				refs = append(refs, out)
			}
		}
		if len(refs) == 0 || (vc.name != "project" && len(refs) == n) {
			t.Fatalf("%s: reference keeps %d of %d rows; the chain proves nothing", vc.name, len(refs), n)
		}
		sort.Slice(refs, func(i, j int) bool { return record.Less(refs[i], refs[j]) })
		want := bytes.Join(refs, nil)

		t.Run(vc.name+"/view", func(t *testing.T) {
			ec := r.ctx(n*record.Size/20, 1)
			root, _, err := Compile(ec, vc.apply(Table(in)))
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if _, err := root.Open(ctx, ec); err != nil {
				t.Fatal(err)
			}
			defer root.Close() //nolint:errcheck
			r.dev.ResetStats()
			c := countedView(t, ctx, ec, root)
			if _, isView := c.(*chainView); !isView {
				t.Fatalf("chain over a table is served by %T, want *chainView", c)
			}
			if c.Len() != len(refs) || c.RecordSize() != len(refs[0]) {
				t.Errorf("view is %d × %d B, reference %d × %d B", c.Len(), c.RecordSize(), len(refs), len(refs[0]))
			}
			got, err := storage.ReadAll(c)
			if err != nil {
				t.Fatal(err)
			}
			sort.Slice(got, func(i, j int) bool { return record.Less(got[i], got[j]) })
			if !bytes.Equal(bytes.Join(got, nil), want) {
				t.Error("view scan differs from the reference")
			}
			if w := r.dev.Stats().Writes; w != 0 {
				t.Errorf("opening and scanning the view wrote %d cachelines", w)
			}
		})

		for _, a := range viewSorts {
			for _, par := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/p%d", vc.name, a.Name(), par), func(t *testing.T) {
					run := func(opts CompileOptions) []byte {
						res := r.runPlan(t, vc.apply(Table(in)).OrderByWith(a), runSpec{budget: n * record.Size / 20, par: par, opts: opts})
						if s, ok := res.root.Children()[0].(*Stream); !opts.MaterializeEveryStep && (!ok || streamingOps(s) != 1) {
							t.Fatalf("chain compiled to %s, want one Stream under the sort", res.root.Name())
						}
						return res.out
					}
					if got := run(CompileOptions{}); !bytes.Equal(got, want) {
						t.Errorf("sorted view: %d bytes that differ from the reference's %d", len(got), len(want))
					}
					if got := run(CompileOptions{MaterializeEveryStep: true}); !bytes.Equal(got, want) {
						t.Errorf("materialize-every-step: %d bytes that differ from the reference's %d", len(got), len(want))
					}
				})
			}
		}
	}
}

// overDeliver is a child whose stream hands out chunks one record
// longer than the run's batch size, whatever a pull asks for.
type overDeliver struct {
	Scan
	recs [][]byte
	per  int
}

func (o *overDeliver) Open(context.Context, *Ctx) (storage.Iterator, error) { return o, nil }
func (o *overDeliver) Close() error                                         { return nil }

func (o *overDeliver) NextChunk(int) ([][]byte, error) {
	if len(o.recs) == 0 {
		return nil, io.EOF
	}
	k := min(o.per, len(o.recs))
	b := o.recs[:k]
	o.recs = o.recs[k:]
	return b, nil
}

func (o *overDeliver) Next() ([]byte, error) {
	if len(o.recs) == 0 {
		return nil, io.EOF
	}
	rec := o.recs[0]
	o.recs = o.recs[1:]
	return rec, nil
}

// TestChainKernelNeverDropsRecords: the kernel sizes a projecting
// chain's output from the batch it is given, not from the run's batch
// size, so a child that over-delivers loses nothing. (The Project
// operator this replaced truncated such a batch to its own buffer and
// reported success.)
func TestChainKernelNeverDropsRecords(t *testing.T) {
	r := newRig(t)
	in := loadRows(t, r)
	base, err := storage.ReadAll(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, vc := range viewChains {
		t.Run(vc.name, func(t *testing.T) {
			var want []byte
			for _, rec := range base {
				want = append(want, vc.ref(rec)...)
			}
			ec := r.ctx(8<<10, 1)
			ec.BatchSize = 16
			root, _, err := Compile(ec, vc.apply(Table(in)))
			if err != nil {
				t.Fatal(err)
			}
			s := root.(*Stream)
			s.child = &overDeliver{Scan: *NewScan(in), recs: base, per: ec.BatchSize + 1}
			if got := drainCursor(t, ec, s); !bytes.Equal(got, want) {
				t.Fatalf("stream over a child delivering %d-record batches emitted %d bytes, want %d", ec.BatchSize+1, len(got), len(want))
			}
		})
	}
}
