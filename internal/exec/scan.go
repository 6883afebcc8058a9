package exec

import (
	"context"
	"fmt"
	"io"

	"wlpm/internal/record"
	"wlpm/internal/storage"
)

// --- Scan ---

// Scan streams a base collection in batches. It is the only leaf
// operator; its output "materialization" is the collection itself, so
// blocking parents consume it without any copying. When the collection's
// iterator supports chunked reads the batches alias the iterator's block
// buffer — zero per-record copies.
type Scan struct {
	c  storage.Collection
	sc *batchScanner
}

// NewScan returns a scan over c.
func NewScan(c storage.Collection) *Scan { return &Scan{c: c} }

func (s *Scan) Name() string         { return fmt.Sprintf("Scan(%s)", s.c.Name()) }
func (s *Scan) RecordSize() int      { return s.c.RecordSize() }
func (s *Scan) Children() []Operator { return nil }

func (s *Scan) Open(_ context.Context, ec *Ctx) error {
	s.sc = newBatchScanner(s.c.Scan(), ec.batchSize())
	return nil
}

func (s *Scan) Next(context.Context) (*Batch, error) {
	if s.sc == nil {
		return nil, io.EOF
	}
	return s.sc.next()
}

func (s *Scan) limitHint(n int) {
	if s.sc != nil {
		s.sc.limit(n)
	}
}

func (s *Scan) Close() error {
	if s.sc == nil {
		return nil
	}
	sc := s.sc
	s.sc = nil
	return sc.Close()
}

func (s *Scan) source() (storage.Collection, bool) { return s.c, true }

// --- Predicates ---

// CmpOp is a comparison operator of a filter predicate.
type CmpOp int

// The comparison operators of the plan DSL.
const (
	Eq CmpOp = iota // ==
	Ne              // !=
	Lt              // <
	Le              // <=
	Gt              // >
	Ge              // >=
)

var cmpNames = map[CmpOp]string{Eq: "==", Ne: "!=", Lt: "<", Le: "<=", Gt: ">", Ge: ">="}

func (o CmpOp) String() string { return cmpNames[o] }

// Predicate compares one fixed-width attribute of a record against a
// constant: the filter form of the benchmark schema (every attribute is
// an unsigned 64-bit integer).
type Predicate struct {
	Attr  int
	Op    CmpOp
	Value uint64
}

func (p Predicate) String() string { return fmt.Sprintf("a%d %s %d", p.Attr, p.Op, p.Value) }

// Eval reports whether rec satisfies the predicate.
func (p Predicate) Eval(rec []byte) bool {
	v := record.Attr(rec, p.Attr)
	switch p.Op {
	case Eq:
		return v == p.Value
	case Ne:
		return v != p.Value
	case Lt:
		return v < p.Value
	case Le:
		return v <= p.Value
	case Gt:
		return v > p.Value
	case Ge:
		return v >= p.Value
	}
	return false
}

// matcher specializes the predicate to a single-comparison closure: the
// operator switch is resolved once, so per-record evaluation in batch
// loops and view scans is one attribute load and one compare.
func (p Predicate) matcher() func(rec []byte) bool {
	a, v := p.Attr, p.Value
	switch p.Op {
	case Eq:
		return func(rec []byte) bool { return record.Attr(rec, a) == v }
	case Ne:
		return func(rec []byte) bool { return record.Attr(rec, a) != v }
	case Lt:
		return func(rec []byte) bool { return record.Attr(rec, a) < v }
	case Le:
		return func(rec []byte) bool { return record.Attr(rec, a) <= v }
	case Gt:
		return func(rec []byte) bool { return record.Attr(rec, a) > v }
	case Ge:
		return func(rec []byte) bool { return record.Attr(rec, a) >= v }
	}
	return func([]byte) bool { return false }
}

// Selectivity is the planner's fraction-of-rows-surviving estimate. With
// no value statistics the engine uses the textbook defaults: equality is
// selective, inequality barely filters, ranges halve.
func (p Predicate) Selectivity() float64 {
	switch p.Op {
	case Eq:
		return 0.1
	case Ne:
		return 0.9
	default:
		return 0.5
	}
}

func (p Predicate) validate(recSize int) error {
	if p.Attr < 0 || (p.Attr+1)*record.AttrSize > recSize {
		return fmt.Errorf("exec: predicate attribute a%d outside %d-byte record", p.Attr, recSize)
	}
	return nil
}

// --- Stream ---

// Stream applies a Filter/Project chain to its child's batches: the
// chain's placement wherever no producer emits through it and no
// blocking consumer re-scans it (chain.go). It absorbs the consecutive
// steps above it the way the blocking producers do, so one operator and
// one pass of the batch kernel serve the whole chain. A chain that does not project emits a
// selection vector aliasing the surviving records of one child batch; a
// projecting chain emits copies it owns. Non-blocking: it touches no
// device lines of its own.
type Stream struct {
	child Operator
	chain
	win  *window
	out  Batch
	need int // records the parent still wants under a limit hint; -1 none
}

func (s *Stream) Name() string         { return s.child.Name() + s.chain.String() }
func (s *Stream) RecordSize() int      { return s.width(s.child.RecordSize()) }
func (s *Stream) Children() []Operator { return []Operator{s.child} }

func (s *Stream) Open(ctx context.Context, ec *Ctx) error {
	s.win = s.newWindow(s.child.RecordSize())
	s.need = -1
	return s.child.Open(ctx, ec)
}

// limitHint bounds read-ahead under a Limit. A chain without predicates
// maps 1:1 onto its child and forwards the hint. A filtering chain
// re-hints its child before every pull with the records still needed,
// narrowing the child's fetches as matches accumulate; selectivity is
// unknown, so that bound is per-pull, not exact — the child may fetch up
// to one hinted batch past the lazy record-at-a-time stopping point.
func (s *Stream) limitHint(n int) {
	if len(s.preds) == 0 {
		hintLimit(s.child, n)
		return
	}
	s.need = n
}

func (s *Stream) Next(ctx context.Context) (*Batch, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if s.need >= 0 {
			if s.need == 0 {
				return nil, io.EOF
			}
			hintLimit(s.child, s.need)
		}
		cb, err := s.child.Next(ctx)
		if err != nil {
			return nil, err
		}
		// A view of the child's batch, rebuilt on every pull.
		s.out.Recs = s.win.run(cb.Recs)
		if len(s.out.Recs) == 0 {
			continue
		}
		if s.need > 0 {
			s.need = max(0, s.need-len(s.out.Recs))
		}
		return &s.out, nil
	}
}

func (s *Stream) Close() error { return s.child.Close() }

// --- Limit ---

// Limit passes through the first n records, slicing the final child
// batch at the cut. Non-blocking. At Open it hints the bound down the
// chain (see limitHinted) so hinted producers fetch no input past the
// n-th record.
type Limit struct {
	child Operator
	n     int
	seen  int
	out   Batch
}

// NewLimit returns a limit of n records over child.
func NewLimit(child Operator, n int) *Limit { return &Limit{child: child, n: n} }

func (l *Limit) Name() string         { return fmt.Sprintf("Limit[%d](%s)", l.n, l.child.Name()) }
func (l *Limit) RecordSize() int      { return l.child.RecordSize() }
func (l *Limit) Children() []Operator { return []Operator{l.child} }

func (l *Limit) Open(ctx context.Context, ec *Ctx) error {
	if l.n < 0 {
		return fmt.Errorf("exec: negative limit %d", l.n)
	}
	l.seen = 0
	if err := l.child.Open(ctx, ec); err != nil {
		return err
	}
	hintLimit(l.child, l.n)
	return nil
}

func (l *Limit) limitHint(n int) {
	if n < l.n-l.seen {
		hintLimit(l.child, n)
	}
}

func (l *Limit) Next(ctx context.Context) (*Batch, error) {
	if l.seen >= l.n {
		return nil, io.EOF
	}
	cb, err := l.child.Next(ctx)
	if err != nil {
		return nil, err
	}
	k := len(cb.Recs)
	if rest := l.n - l.seen; k > rest {
		k = rest
	}
	l.seen += k
	// A view of the child's batch, re-sliced on every pull.
	l.out.Recs = cb.Recs[:k]
	return &l.out, nil
}

func (l *Limit) Close() error { return l.child.Close() }
