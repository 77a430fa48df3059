package serve

import (
	"context"
	"sync"

	"mrx/internal/pathexpr"
	"mrx/internal/query"
)

// flight is one in-progress evaluation that any number of callers wait on.
type flight struct {
	done    chan struct{} // closed after res/err are set and the flight is unpublished
	res     query.Result
	err     error
	waiters int                // guarded by coalescer.mu
	cancel  context.CancelFunc // cancels the evaluation's context
}

// flightKey identifies what a flight computes: the canonical expression,
// and whether it runs the count-only evaluation. A count-only result has no
// ids, so it must never answer a waiter that asked for them; keying by both
// keeps the two apart at no extra allocation.
type flightKey struct {
	canonical string
	countOnly bool
}

// coalescer collapses concurrent evaluations of the same flight key into
// one: the first caller for a key starts the evaluation
// (the "leader"), later callers for the same key join the existing flight,
// and the single result fans out to every waiter. This is single-flight
// with one refinement for a serving layer: the evaluation runs under its
// own context that is canceled only when every waiter has detached, so one
// impatient client cannot kill a result other clients still want, while a
// query nobody is waiting for anymore stops validating mid-flight.
type coalescer struct {
	exec    evalFunc
	mu      sync.Mutex
	flights map[flightKey]*flight
}

// evalFunc evaluates e under ctx, counting only when countOnly is set. The
// coalescer takes it once, so a request passes its expression, not a
// closure over it.
type evalFunc func(ctx context.Context, countOnly bool, e *pathexpr.Expr) (query.Result, error)

func newCoalescer(exec evalFunc) *coalescer {
	return &coalescer{exec: exec, flights: make(map[flightKey]*flight)}
}

// do returns exec's result for e under key, coalescing concurrent callers:
// at most one exec runs per key at a time, on the expression of the caller
// that started it. shared reports whether this caller joined a flight
// started by another (the coalesce counter). If ctx is done before the
// flight completes, do detaches and returns ctx.Err(); the last waiter to
// detach cancels the exec context.
//
//mrx:hotpath coalescer fast path: every served request passes through here
func (c *coalescer) do(ctx context.Context, key flightKey, e *pathexpr.Expr) (res query.Result, shared bool, err error) {
	c.mu.Lock()
	f, ok := c.flights[key]
	if ok {
		f.waiters++
	} else {
		//mrlint:allow ctxflow flight outlives any one waiter; detach is deliberate, lifetime is refcounted and the last detaching waiter cancels
		execCtx, cancel := context.WithCancel(context.Background())
		f = &flight{done: make(chan struct{}), waiters: 1, cancel: cancel}
		c.flights[key] = f
		go func() {
			res, err := c.exec(execCtx, key.countOnly, e)
			c.mu.Lock()
			f.res, f.err = res, err
			// Unpublish before signaling: a caller arriving after done is
			// closed must start a fresh flight, never join a finished one.
			delete(c.flights, key)
			c.mu.Unlock()
			close(f.done)
			cancel()
		}()
	}
	c.mu.Unlock()

	select {
	case <-f.done:
		return f.res, ok, f.err
	case <-ctx.Done():
		c.mu.Lock()
		f.waiters--
		if f.waiters == 0 {
			// Nobody is listening for this result anymore: stop the
			// evaluation. The exec goroutine still runs to completion
			// (promptly, once the engine observes the cancellation) and
			// cleans up the flight itself.
			f.cancel()
		}
		c.mu.Unlock()
		return query.Result{}, ok, ctx.Err()
	}
}
