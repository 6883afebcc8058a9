package sorts

import (
	"errors"
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
// slab tree (xheap.Keyed, a max tree of losers over the current minima)
// reused by every pass, plus the lower bound the next pass resumes from.
// Records are totally ordered by (key, bytes, input position) so that duplicate
// keys — and byte-identical records — still progress strictly from pass
// to pass (§2.1.1's "position must be greater than the position of the
// maximum element of the previous run").
//
// A folding selector (combine set) selects groups: its tree holds up to
// budget distinct keys, each combining its rows in place (found through
// index), so ⌈G/M⌉ passes emit G groups. Tree and bound compare keys
// alone: a key at or below the bound was emitted whole by an earlier pass.
type selector struct {
	env     *algo.Env
	heap    *xheap.Keyed
	combine func(dst, src []byte) // folding: merges partial src into the resident partial dst
	index   *xheap.Index          // folding: key → slot of every resident group

	// The last record of the previous batch; passes admit only records
	// strictly after it.
	bounded  bool
	boundKey uint64
	boundPos uint32
	boundRec []byte
	more     bool // the last pass left a record for a later one
	scanned  int  // the records the last pass read: its input's length
}

// newSelector returns a selector extracting up to budget records (or
// groups) of recSize bytes per pass, polling env's cancellation as it
// scans.
func newSelector(env *algo.Env, recSize, budget int, combine func(dst, src []byte)) *selector {
	s := &selector{env: env, heap: xheap.NewKeyed(recSize, budget, true)}
	if combine != nil {
		s.combine, s.index = combine, new(xheap.Index)
	}
	return s
}

// pass scans src once and selects the (at most budget) smallest records
// strictly after the bound, leaving them in ascending order for rec and
// advancing the bound past them; it reports how many it selected, and
// scanned how many it read. onSurvivor, when non-nil, receives every
// other record beyond the bound (still unsorted business for later
// passes) as a view valid only during the call (a displaced group as its
// one partial); this is the hook lazy sort uses to materialize its
// intermediate inputs. On error the batch is empty. src.Len() may be an
// upper bound (SortCounting): it serves only the 32-bit check.
func (s *selector) pass(src storage.Collection, onSurvivor func(rec []byte) error) (int, error) {
	// Positions are the 32-bit tie-break of the tree's entries.
	if uint64(src.Len()) > math.MaxUint32 {
		return 0, fmt.Errorf("sorts: selection over %q: %d records exceed the 32-bit position space", src.Name(), src.Len())
	}
	h := s.heap
	h.Reset()
	if s.index != nil {
		s.index.Reset()
	}
	s.more, s.scanned = false, 0
	it := src.Scan()
	defer it.Close()
	if err := s.scan(storage.Chunked(it), s.env.ChunkRecords(src.RecordSize()), onSurvivor); err != nil {
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

// scan is pass's loop over one chunk at a time, ticking the pass's
// Poller with each chunk before taking any of it. Once the tree is full
// its top is kept in a local, so rejecting a record costs one key
// compare; record bytes are read only on a key tie.
func (s *selector) scan(ci storage.ChunkIterator, chunk int, onSurvivor func(rec []byte) error) error {
	h := s.heap
	var top xheap.Entry // h's top, once h is full
	poll := s.env.Poller()
	for {
		recs, err := ci.NextChunk(chunk)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := poll.Tick(len(recs)); err != nil {
			return err
		}
		next := uint32(s.scanned) // the input position of recs[0]
		s.scanned += len(recs)
		if s.index != nil {
			for i, rec := range recs {
				if err := s.fold(record.Key(rec), next+uint32(i), rec, onSurvivor); err != nil {
					return err
				}
			}
			continue
		}
		for i, rec := range recs {
			pos := next + uint32(i)
			key := record.Key(rec)
			if s.bounded && key <= s.boundKey && !xheap.Before(s.boundKey, s.boundRec, s.boundPos, key, rec, pos) {
				continue // emitted by an earlier pass
			}
			if !h.Full() {
				h.Push(key, pos, rec)
				if h.Full() {
					top = h.Top()
				}
				continue
			}
			if key > top.Key || key == top.Key && !xheap.Before(key, rec, pos, top.Key, h.Record(top.Slot), top.Tie) {
				if err := s.handOn(rec, onSurvivor); err != nil {
					return err
				}
				continue
			}
			// rec displaces the current maximum, which is handed on before
			// its slot is overwritten in place.
			if err := s.handOn(h.Record(top.Slot), onSurvivor); err != nil {
				return err
			}
			h.ReplaceTop(key, pos, rec)
			top = h.Top()
		}
	}
}

// fold is a folding pass's step: a resident group absorbs the row; a new
// key takes a free slot, or the largest group's when that key is larger —
// handed on whole, as the tree's largest key only falls and this pass
// admits none of its later rows.
func (s *selector) fold(key uint64, pos uint32, rec []byte, onSurvivor func(rec []byte) error) error {
	if s.bounded && key <= s.boundKey {
		return nil // emitted by an earlier pass
	}
	h := s.heap
	if slot, ok := s.index.Find(key); ok {
		s.combine(h.Record(slot), rec)
		return nil
	}
	if !h.Full() {
		s.index.Insert(key, h.Push(key, pos, rec))
		return nil
	}
	top := h.Top()
	if key > top.Key {
		return s.handOn(rec, onSurvivor)
	}
	if err := s.handOn(h.Record(top.Slot), onSurvivor); err != nil {
		return err
	}
	s.index.Remove(top.Slot)
	h.ReplaceTop(key, pos, rec)
	s.index.Insert(key, top.Slot)
	return nil
}

// handOn passes a record left for a later pass to onSurvivor, if any.
func (s *selector) handOn(rec []byte, onSurvivor func(rec []byte) error) error {
	s.more = true
	if onSurvivor == nil {
		return nil
	}
	return onSurvivor(rec)
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
	src    storage.Collection
	sel    *selector
	n, pos int   // batch size and read position within it
	err    error // sticky: io.EOF once the last batch is out or closed, else the failed pass's error
}

// newSelectionStream builds a stream over src extracting budget records
// (or groups) per pass, polling the environment's cancellation.
func newSelectionStream(env *algo.Env, src storage.Collection, budget int, combine func(dst, src []byte)) *selectionStream {
	return &selectionStream{src: src, sel: newSelector(env, src.RecordSize(), budget, combine)}
}

// Next implements storage.Iterator.
func (s *selectionStream) Next() ([]byte, error) {
	for s.pos >= s.n {
		if s.err != nil {
			return nil, s.err
		}
		s.pos = 0
		if s.n, s.err = s.sel.pass(s.src, nil); s.err == nil && !s.sel.more {
			s.err = io.EOF // after this batch, the last
		}
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
// sort's x = 0 end, whose I/O is the same (cost.Emit{}.SelS ≡
// cost.Emit{}.SegS at x = 0).
// Folding, it writes G groups in ⌈G/M⌉ passes, histogram-free.
type SelectionSort struct{}

// NewSelectionSort returns the SelS operator.
func NewSelectionSort() *SelectionSort { return &SelectionSort{} }

// Name implements Algorithm.
func (s *SelectionSort) Name() string { return cost.SortSelS }

// Sort implements Algorithm.
func (s *SelectionSort) Sort(env *algo.Env, in, out storage.Collection) error {
	return s.sortWith(env, in, out, nil)
}

func (s *SelectionSort) sortWith(env *algo.Env, in, out storage.Collection, combine func(dst, src []byte)) error {
	return lazySort(env, in, out, never, combine, nil, -1)
}

// Profile implements Algorithm.
func (s *SelectionSort) Profile(em cost.Emit, t, m, lambda float64) cost.Profile {
	return em.SelS(t, m)
}

// never is SelS's materialization policy: no iteration writes survivors.
func never(remaining, budget, lambda float64) int { return math.MaxInt }

// Selects reports whether a sorts by selection passes alone (SelS):
// its first pass reads every record and writes none, so it can sort an
// input whose length is known only once read (SortCounting), and each
// pass emits in output order, so it can stop once its reader's records
// are out (SortTop). Every other algorithm sizes its work by the length
// before it reads and writes the whole input.
func Selects(a Algorithm) bool {
	_, ok := a.(*SelectionSort)
	return ok
}

// SortTop sorts in into out with a, as SortFolding does (a plain sort
// when combine is nil), for a reader that takes only the first n records
// of out; n < 0 takes them all. SelS (Selects) writes only those: each
// pass selects at most n, and it stops once n are out, so it reads the
// input ⌈min(|T|, n)/M⌉ times and writes min(|T|, n) records
// (cost.Emit.Limit). Every other algorithm sorts the whole input.
func SortTop(env *algo.Env, a Algorithm, in, out storage.Collection, combine func(dst, src []byte), n int) error {
	if Selects(a) {
		return lazySort(env, in, out, never, combine, nil, n)
	}
	return a.sortWith(env, in, out, combine)
}

// SortCounting sorts in into out with SelS, as SortTop does, over an
// input whose in.Len() is an upper bound until it is read: a filtering
// view, not yet counted. The first pass counts it, and before that
// pass's batch reaches out, open receives the count and names the
// algorithm to go on with. SelS goes on; any other sorts in from its
// start, out still empty, so its I/O is one counting scan plus its own.
// open must make in.Len() exact before it returns. With n = 0 no pass
// runs: in is neither read nor counted, and open is not called unless
// in.Len() is 0.
func SortCounting(env *algo.Env, in, out storage.Collection, combine func(dst, src []byte), n int, open func(rows int) Algorithm) error {
	var a Algorithm
	err := lazySort(env, in, out, never, combine, func(rows int) bool {
		a = open(rows)
		return Selects(a)
	}, n)
	if !errors.Is(err, errReopened) {
		return err
	}
	return SortTop(env, a, in, out, combine, n)
}

// errReopened ends a counting selection whose input is to be sorted by
// another algorithm (SortCounting).
var errReopened = errors.New("sorts: counted input reopened with another algorithm")
