// Package sorts is a ctxpoll fixture: the import path places it inside
// the kernel scope, so unbounded iterator loops must carry a probe.
package sorts

import "context"

type iter struct{}

func (iter) Next() ([]byte, error)      { return nil, nil }
func (iter) NextChunk() ([]byte, error) { return nil, nil }

type env struct{ ctx context.Context }

func (e env) Poll() func() error { return func() error { return nil } }

// consumeNoPoll drains the iterator with no cancellation probe.
func consumeNoPoll(it iter) error {
	for { // want "unbounded iterator loop has no cancellation probe"
		if _, err := it.Next(); err != nil {
			return err
		}
	}
}

// chunkNoPoll consumes via NextChunk; same contract.
func chunkNoPoll(it iter) error {
	for { // want "unbounded iterator loop has no cancellation probe"
		if _, err := it.NextChunk(); err != nil {
			return err
		}
	}
}

// consumePollChecker probes through the Env.Poll checker.
func consumePollChecker(it iter, e env) error {
	poll := e.Poll()
	for {
		if err := poll(); err != nil {
			return err
		}
		if _, err := it.Next(); err != nil {
			return err
		}
	}
}

// consumeCtxErr probes through ctx.Err directly.
func consumeCtxErr(ctx context.Context, it iter) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := it.Next(); err != nil {
			return err
		}
	}
}

// consumeCtxArg delegates the probe to a callee that threads the
// context.
func consumeCtxArg(ctx context.Context, it iter) error {
	for {
		if err := step(ctx, it); err != nil {
			return err
		}
	}
}

func step(ctx context.Context, it iter) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	_, err := it.Next()
	return err
}

// consumeDone probes by selecting on ctx.Done.
func consumeDone(ctx context.Context, it iter) error {
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if _, err := it.Next(); err != nil {
			return err
		}
	}
}

// consumeCallback calls an injected func-typed value: by engine
// convention the caller poll-wraps callbacks (algo.Env.Polled), so the
// callback owns the probe.
func consumeCallback(it iter, emit func([]byte) error) error {
	for {
		rec, err := it.Next()
		if err != nil {
			return err
		}
		if err := emit(rec); err != nil {
			return err
		}
	}
}

// boundedLoop has a condition: coarse-grained polling by construction.
func boundedLoop(it iter) error {
	for i := 0; i < 64; i++ {
		if _, err := it.Next(); err != nil {
			return err
		}
	}
	return nil
}

// allowedLoop documents a legitimate exception.
func allowedLoop(it iter) error {
	//lint:allow wlvet/ctxpoll fixture models a bounded in-memory drain
	for {
		if _, err := it.Next(); err != nil {
			return err
		}
	}
}
