package exec

import (
	"context"
	"fmt"

	"wlpm/internal/record"
	"wlpm/internal/storage"
)

// --- Scan ---

// Scan streams a base collection: its Open returns the collection's own
// scan, read by chunk — on blocked memory the device bytes in place, zero
// per-record copies. It is the only leaf operator; its output
// "materialization" is the collection itself, so blocking parents
// consume it without any copying.
type Scan struct {
	c  storage.Collection
	it storage.Iterator
}

// NewScan returns a scan over c.
func NewScan(c storage.Collection) *Scan { return &Scan{c: c} }

func (s *Scan) Name() string         { return fmt.Sprintf("Scan(%s)", s.c.Name()) }
func (s *Scan) RecordSize() int      { return s.c.RecordSize() }
func (s *Scan) Children() []Operator { return nil }

func (s *Scan) Open(context.Context, *Ctx) (storage.Iterator, error) {
	s.it = s.c.Scan()
	return s.it, nil
}

func (s *Scan) Close() error {
	if s.it == nil {
		return nil
	}
	it := s.it
	s.it = nil
	return it.Close()
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
// operator switch is resolved once, so per-record evaluation in chunk
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

// Stream applies a Filter/Project chain to its child's stream: the
// chain's placement wherever no producer emits through it and no
// blocking consumer re-scans it (chain.go). It absorbs the consecutive
// steps above it the way the blocking producers do, so one operator and
// one chain iterator — the kernel a view's scan runs too (fuse.go) —
// serve the whole chain. A chain that does not project serves a
// selection vector aliasing the surviving records of one pull of the
// child; a projecting chain serves copies it owns. Non-blocking: it
// touches no device lines of its own.
type Stream struct {
	child Operator
	chain
}

func (s *Stream) Name() string         { return s.child.Name() + s.chain.String() }
func (s *Stream) RecordSize() int      { return s.width(s.child.RecordSize()) }
func (s *Stream) Children() []Operator { return []Operator{s.child} }

func (s *Stream) Open(ctx context.Context, ec *Ctx) (storage.Iterator, error) {
	it, err := s.child.Open(ctx, ec)
	if err != nil {
		return nil, err
	}
	return newChainIterator(ctx, it, &s.chain, s.child.RecordSize(), ec.PullSize()), nil
}

// Close closes the child, and with it the stream the chain reads.
func (s *Stream) Close() error { return s.child.Close() }

// --- Limit ---

// Limit passes through the first n records of its child's stream, bound
// by storage.Limit: no pull asks the child for more records than are
// still wanted, so a producer fetches no input past the n-th record. A
// filtering Stream passes the ask on to its own child, so the scan under
// it reads ahead by at most what the filter drops from one pull.
// Non-blocking.
type Limit struct {
	child Operator
	n     int
}

// NewLimit returns a limit of n records over child.
func NewLimit(child Operator, n int) *Limit { return &Limit{child: child, n: n} }

func (l *Limit) Name() string         { return fmt.Sprintf("Limit[%d](%s)", l.n, l.child.Name()) }
func (l *Limit) RecordSize() int      { return l.child.RecordSize() }
func (l *Limit) Children() []Operator { return []Operator{l.child} }

func (l *Limit) Open(ctx context.Context, ec *Ctx) (storage.Iterator, error) {
	if l.n < 0 {
		return nil, fmt.Errorf("exec: negative limit %d", l.n)
	}
	it, err := l.child.Open(ctx, ec)
	if err != nil {
		return nil, err
	}
	return storage.Limit(it, l.n), nil
}

// Close closes the child, and with it the stream the bound reads.
func (l *Limit) Close() error { return l.child.Close() }
