package sorts

import (
	"fmt"
	"io"
	"math"

	"wlpm/internal/algo"
	"wlpm/internal/cost"
	"wlpm/internal/record"
	"wlpm/internal/storage"
	"wlpm/internal/xheap"
)

// selector is the working memory of a multi-pass selection: one keyed
// slab heap (xheap.Keyed, a max-heap of the current minima) reused by
// every pass, plus the lower bound the next pass resumes from. Records
// are totally ordered by (key, bytes, input position) so that duplicate
// keys — and byte-identical records — still progress strictly from pass
// to pass (§2.1.1's "position must be greater than the position of the
// maximum element of the previous run").
type selector struct {
	env  *algo.Env
	heap *xheap.Keyed
	poll func() error

	// The last record of the previous batch; passes admit only records
	// strictly after it.
	bounded  bool
	boundKey uint64
	boundPos uint32
	boundRec []byte
}

// newSelector returns a selector extracting up to budget records of
// recSize bytes per pass, polling env's cancellation per scanned record.
func newSelector(env *algo.Env, recSize, budget int) *selector {
	return &selector{env: env, heap: xheap.NewKeyed(recSize, budget, true), poll: env.Poll()}
}

// pass scans src once and selects the (at most budget) smallest records
// strictly after the bound, leaving them in ascending order for rec and
// advancing the bound past them; it reports how many it selected.
// onSurvivor, when non-nil, receives every other record beyond the bound
// (still unsorted business for later passes) as a view valid only during
// the call; this is the hook lazy sort uses to materialize its
// intermediate inputs. On error the batch is empty.
func (s *selector) pass(src storage.Collection, onSurvivor func(rec []byte) error) (int, error) {
	// Positions are the 32-bit tie-break of the heap entries.
	if uint64(src.Len()) > math.MaxUint32 {
		return 0, fmt.Errorf("sorts: selection over %q: %d records exceed the 32-bit position space", src.Name(), src.Len())
	}
	h := s.heap
	h.Reset()
	next := uint32(0)
	err := s.env.Scan(src, func(rec []byte) error {
		if err := s.poll(); err != nil {
			return err
		}
		pos := next
		next++
		key := record.Key(rec)
		if s.bounded && !xheap.Before(s.boundKey, s.boundRec, s.boundPos, key, rec, pos) {
			return nil // emitted by an earlier pass
		}
		if !h.Full() {
			h.Push(key, pos, rec)
			return nil
		}
		top := h.Top()
		if !xheap.Before(key, rec, pos, top.Key, h.Record(top.Slot), top.Tie) {
			if onSurvivor != nil {
				return onSurvivor(rec)
			}
			return nil
		}
		// rec displaces the current maximum, which is handed on before
		// its slot is overwritten in place.
		if onSurvivor != nil {
			if err := onSurvivor(h.Record(top.Slot)); err != nil {
				return err
			}
		}
		h.ReplaceTop(key, pos, rec)
		return nil
	})
	if err != nil {
		h.Reset()
		return 0, err
	}
	h.Sort()
	if n := h.Len(); n > 0 {
		last := h.Items()[n-1]
		s.bounded, s.boundKey, s.boundPos = true, last.Key, last.Tie
		s.boundRec = append(s.boundRec[:0], h.Record(last.Slot)...)
	}
	return h.Len(), nil
}

// rec returns record i of the last pass's batch, ascending. The view is
// valid until the next pass.
func (s *selector) rec(i int) []byte { return s.heap.Record(s.heap.Items()[i].Slot) }

// restart drops the bound: the next pass selects from the whole input.
func (s *selector) restart() { s.bounded = false }

// selectionStream is a sorted, lazily produced view of a collection: each
// refill runs one bounded selection pass, so records are *read* once per
// pass but never written until the consumer (the final merge) places them
// at their final location. This is how segment sort's selection segment
// achieves one write per record (§2.1.1).
type selectionStream struct {
	src     storage.Collection
	sel     *selector
	n, pos  int // batch size and read position within it
	emitted int
	err     error // sticky: io.EOF once drained or closed, else the failed pass's error
}

// newSelectionStream builds a stream over src extracting budget records
// per pass, polling the environment's cancellation during each pass.
func newSelectionStream(env *algo.Env, src storage.Collection, budget int) *selectionStream {
	return &selectionStream{src: src, sel: newSelector(env, src.RecordSize(), budget)}
}

// Next implements storage.Iterator.
func (s *selectionStream) Next() ([]byte, error) {
	for s.pos >= s.n {
		if s.err == nil && s.emitted >= s.src.Len() {
			s.err = io.EOF
		}
		if s.err != nil {
			return nil, s.err
		}
		s.pos = 0
		if s.n, s.err = s.sel.pass(s.src, nil); s.err == nil && s.n == 0 {
			s.err = io.EOF
		}
		s.emitted += s.n
	}
	rec := s.sel.rec(s.pos)
	s.pos++
	return rec, nil
}

// Close implements storage.Iterator.
func (s *selectionStream) Close() error {
	s.n, s.pos, s.err = 0, 0, io.EOF
	return nil
}

// SelectionSort is SelS: the write-minimal multi-pass generalization of
// selection sort (§2.1.1). Each pass scans the whole input and extracts
// the next M smallest records, so the input is written exactly once (as
// output) at the price of |T|/M read passes. It runs as lazy sort's loop
// (§2.1.3) never materializing its survivors, and is priced as segment
// sort's x = 0 end, whose I/O is the same (SelSProfile ≡ SegSProfile(0)).
type SelectionSort struct{}

// NewSelectionSort returns the SelS operator.
func NewSelectionSort() *SelectionSort { return &SelectionSort{} }

// Name implements Algorithm.
func (s *SelectionSort) Name() string { return cost.SortSelS }

// Sort implements Algorithm.
func (s *SelectionSort) Sort(env *algo.Env, in, out storage.Collection) error {
	never := func(remaining, budget, lambda float64) int { return math.MaxInt }
	return lazySort(env, in, out, never)
}

// Profile implements Profiled.
func (s *SelectionSort) Profile(em cost.Emit, t, m, lambda float64) cost.Profile {
	return em.SelS(t, m)
}
