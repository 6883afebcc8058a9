// Package grantrelease models the two release protocols: broker
// grants (Acquire* returning a Grant, released with Release) and row
// streams (Rows returning a Close-able cursor).
package grantrelease

type Grant struct{}

func (*Grant) Release() {}

type Broker struct{}

func (*Broker) Acquire(n int) (*Grant, error) { return &Grant{}, nil }

type Stream struct{}

func (*Stream) Close() error { return nil }

func (*Stream) Record() []byte { return nil }

type Query struct{}

func (Query) Rows() (*Stream, error) { return &Stream{}, nil }

// leakyGrant releases on success but not on the work-error path.
func leakyGrant(b *Broker, work func() error) error {
	g, err := b.Acquire(1)
	if err != nil {
		return err // the immediate guard: g is nil here
	}
	if err := work(); err != nil {
		return err // want "return leaks the broker grant acquired at line \d+"
	}
	g.Release()
	return nil
}

// discard throws the grant away: a leak on every path.
func discard(b *Broker) {
	_, _ = b.Acquire(1) // want "broker grant from Acquire is discarded"
}

// deferredGrant covers every return with one deferred release.
func deferredGrant(b *Broker, work func() error) error {
	g, err := b.Acquire(1)
	if err != nil {
		return err
	}
	defer g.Release()
	return work()
}

// handOff returns the grant: the caller owns the release.
func handOff(b *Broker) (*Grant, error) {
	g, err := b.Acquire(1)
	if err != nil {
		return nil, err
	}
	return g, nil
}

func park(func()) {}

// armed hands the release method itself to another call (the
// context.AfterFunc shape): ownership moved.
func armed(b *Broker) error {
	g, err := b.Acquire(1)
	if err != nil {
		return err
	}
	park(g.Release)
	return nil
}

type session struct{ g *Grant }

// adopt stores the grant into longer-lived state: the session's
// teardown owns the release.
func (s *session) adopt(b *Broker) error {
	g, err := b.Acquire(1)
	if err != nil {
		return err
	}
	s.g = g
	return nil
}

// leakyRows forgets the cursor on the work-error path.
func leakyRows(q Query, work func() error) error {
	rows, err := q.Rows()
	if err != nil {
		return err
	}
	if err := work(); err != nil {
		return err // want "return leaks the row stream acquired at line \d+"
	}
	return rows.Close()
}

// allowedLeak documents a legitimate exception.
func allowedLeak(b *Broker, work func() error) error {
	g, err := b.Acquire(1)
	if err != nil {
		return err
	}
	if err := work(); err != nil {
		//lint:allow wlvet/grantrelease fixture models a grant reclaimed by the caller's teardown
		return err
	}
	g.Release()
	return nil
}

func consume(...any) {}

// readInArgs reads the cursor inside call arguments: a value computed
// from the cursor hands nothing off.
func readInArgs(q Query, work func() error) error {
	rows, err := q.Rows()
	if err != nil {
		return err
	}
	consume(append([]byte(nil), rows.Record()...))
	if err := work(); err != nil {
		return err // want "return leaks the row stream acquired at line \d+"
	}
	return rows.Close()
}

// returnsRead returns a value read from the cursor, never closing it.
func returnsRead(q Query) []byte {
	rows, err := q.Rows()
	if err != nil {
		return nil
	}
	return rows.Record() // want "return leaks the row stream acquired at line \d+"
}

// Session acquires the façade's grants through its own unexported
// method; the Grant result confines the match.
type Session struct{ b *Broker }

func (s *Session) acquire() (*Grant, error) { return s.b.Acquire(1) }

// leakySession forgets the session's grant on the work-error path.
func (s *Session) leakySession(work func() error) error {
	g, err := s.acquire()
	if err != nil {
		return err
	}
	if err := work(); err != nil {
		return err // want "return leaks the broker grant acquired at line \d+"
	}
	g.Release()
	return nil
}

type cursor struct{ g *Grant }

// open takes the grant on success only; on error the caller keeps it.
func open(g *Grant) (*cursor, error) { return &cursor{g}, nil }

// failedHandOff does not release the grant when the call it was handed
// to fails.
func (s *Session) failedHandOff() (*cursor, error) {
	g, err := s.acquire()
	if err != nil {
		return nil, err
	}
	c, err := open(g)
	if err != nil {
		return nil, err // want "return leaks the broker grant acquired at line \d+"
	}
	return c, nil
}
