package storage

import "fmt"

// Sink is a write-only Collection: what a producer is handed as its
// output when the consumer's first streaming step — fold a sorted stream
// into groups, drop a row, keep some columns — is applied as the producer
// emits, so the producer's raw output never reaches the device. Every
// sort and join kernel only ever appends to its output, in order, and
// closes it; a Sink turns those calls into put and flush.
//
// A Sink is deliberately neither a BaseCollection nor an Unwrapper, so
// AsRangeAppender, the one capability check, never reaches a collection
// behind it to write around put. A parallel final merge handed a Sink
// therefore stays on the serial merge, which is the only order put can
// consume.
type Sink struct {
	name    string
	recSize int
	n       int
	put     func(rec []byte) error
	flush   func() error
}

// NewSink returns a sink accepting recSize-byte records. put receives
// every appended record, in append order; the view is only valid during
// the call. flush runs on every Close — a producer closes its output
// once it has emitted its last record, and the output's owner may close
// it again (exec's RunCtx closes the collection it was given after the
// result stage has), so flush must be idempotent; nil means there is
// nothing to flush.
func NewSink(name string, recSize int, put func(rec []byte) error, flush func() error) *Sink {
	return &Sink{name: name, recSize: recSize, put: put, flush: flush}
}

func (s *Sink) Name() string    { return s.name }
func (s *Sink) RecordSize() int { return s.recSize }

// Len reports the records accepted so far (not what put made of them).
func (s *Sink) Len() int { return s.n }

func (s *Sink) Append(rec []byte) error {
	if len(rec) != s.recSize {
		return fmt.Errorf("storage: append of %d-byte record to %d-byte sink %q", len(rec), s.recSize, s.name)
	}
	s.n++
	return s.put(rec)
}

func (s *Sink) Close() error {
	if s.flush == nil {
		return nil
	}
	return s.flush()
}

func (s *Sink) writeOnly(verb string) error {
	return fmt.Errorf("storage: %s of write-only sink %q", verb, s.name)
}

func (s *Sink) Truncate() error { return s.writeOnly("truncate") }
func (s *Sink) Destroy() error  { return s.writeOnly("destroy") }

// Scan returns an iterator that fails: a sink keeps nothing to read back.
func (s *Sink) Scan() Iterator { return s.ScanFrom(0) }

func (s *Sink) ScanFrom(int) Iterator { return failedScan{s.writeOnly("scan")} }

type failedScan struct{ err error }

func (it failedScan) Next() ([]byte, error) { return nil, it.err }
func (it failedScan) Close() error          { return nil }
