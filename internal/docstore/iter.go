package docstore

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"natix/internal/telemetry"
)

// IterOptions configure a lazy cursor.
type IterOptions struct {
	// Limit stops iteration after this many matches (0 = unlimited).
	// Reaching the limit ends the evaluation and releases the document
	// lock, exactly like exhausting the cursor.
	Limit int
}

// Iter is a lazy cursor over query matches. It holds the queried
// document's read lock from QueryIter until Close, exhaustion, or a
// terminal error, so the matches it yields stay valid while it is open:
// writers of the document block until the cursor is released. Next
// drives the same machine the eager Query drains, one match per call,
// so matches (and the record loads backing them) are produced only as
// the consumer pulls them — first-match latency is independent of
// result-set size.
//
// An Iter is owned by one goroutine: Next, Result, Err and Close must
// not be called concurrently. Results obtained from it may be consumed
// concurrently with iteration, but not concurrently with Close.
// Always Close a cursor that is not iterated to exhaustion; an open
// cursor blocks every writer of its document.
type Iter struct {
	store *Store
	cx    context.Context

	lock   *sync.RWMutex
	locked atomic.Bool // read by Result.view, possibly cross-goroutine

	// relmu pins the document-lock release against concurrent match
	// access: finish releases the document lock under relmu.Lock, and
	// Result.view runs lock-elided accessors under relmu.RLock, so the
	// lock can never be dropped mid-access by the iterating goroutine
	// exhausting (or cancelling) the cursor on another one.
	relmu sync.RWMutex

	// m is the evaluation. Only the goroutine inside Next touches it.
	m matcher

	cur   Result
	err   error
	seen  int
	limit int
	done  bool

	// Telemetry: the evaluation route, open timestamp and operation span
	// feed the cursor-lifecycle metrics when finish runs. exhausted
	// distinguishes a cursor its consumer drained (or limited) from one
	// abandoned by Close, cancellation, or an error.
	kind      EvaluatorKind
	start     time.Time
	span      *telemetry.Span
	exhausted bool
}

// QueryIter opens a lazy cursor over the matches of steps against the
// named document. The evaluation route (posting-list index, navigating
// scan, or flat-mode parse) is fixed here; production starts on the
// first Next. The context is re-checked on every Next and at page-fetch
// granularity inside the evaluation, so cancelling it aborts the cursor
// promptly with the context's error.
func (s *Store) QueryIter(cx context.Context, name string, steps []Step, opts IterOptions) (*Iter, error) {
	q, err := s.openQuery(cx, name, steps)
	if err != nil {
		return nil, err
	}
	it := &Iter{store: s, cx: cx, lock: q.lock, limit: opts.Limit, start: telemetry.Now(), kind: q.kind, m: q.start()}
	it.cur = Result{Doc: name, store: s, iter: it}
	it.locked.Store(true)
	it.span = s.startQueryOp("cursor", it.kind, name)
	s.mCursorsOpened.Inc()
	return it, nil
}

// Next advances to the next match, returning false when the cursor is
// exhausted, the limit is reached, the context is cancelled, or an
// error occurs (check Err). Once Next returns false the document lock
// has been released; Close is then a no-op.
func (it *Iter) Next() bool {
	if it.done {
		return false
	}
	if err := ctxErr(it.cx); err != nil {
		it.finish(err)
		return false
	}
	if it.limit > 0 && it.seen >= it.limit {
		it.exhausted = true // the consumer got everything it asked for
		it.finish(nil)
		return false
	}
	ok, err := it.m.match(&it.cur)
	if !ok {
		it.exhausted = err == nil
		it.finish(err)
		return false
	}
	it.seen++
	return true
}

// Result returns the current match. Valid after a true Next.
func (it *Iter) Result() Result { return it.cur }

// Err returns the error that terminated iteration, if any. A cursor
// stopped by Close, a limit, or exhaustion has a nil Err.
func (it *Iter) Err() error { return it.err }

// Indexed reports whether the cursor runs on the posting-list
// evaluator (as opposed to the navigating scan or a flat-mode parse).
func (it *Iter) Indexed() bool { return it.kind == EvalIndexed }

// Close ends the evaluation and releases the document lock. It is
// idempotent, safe after exhaustion, and returns Err.
func (it *Iter) Close() error {
	it.finish(nil)
	return it.err
}

// Abort terminates iteration with err — the API layer uses it when the
// database is closed under an open cursor.
func (it *Iter) Abort(err error) { it.finish(err) }

// finish tears the cursor down exactly once: remember a terminal
// error, release the evaluation's scratch and the document lock. The
// release waits out in-flight lock-elided match accesses (relmu).
// Cursor-lifecycle accounting happens here — a cursor counts as
// exhausted only when its consumer drained it (or hit its limit);
// everything else (Close, cancellation, errors) is an abandonment.
func (it *Iter) finish(err error) {
	if it.done {
		return
	}
	it.done = true
	if err != nil {
		it.err = err
	}
	it.m.release()
	it.relmu.Lock()
	if it.locked.CompareAndSwap(true, false) {
		it.lock.RUnlock()
	}
	it.relmu.Unlock()
	s := it.store
	if it.exhausted {
		s.mCursorsExhausted.Inc()
	} else {
		s.mCursorsAbandoned.Inc()
	}
	s.mCursorRows.Add(int64(it.seen))
	s.queryHist(it.kind).Observe(int64(telemetry.Since(it.start)))
	it.span.Add("rows", int64(it.seen))
	it.span.End()
}

// holdsLock reports whether the cursor still holds the document read
// lock (Result.view elides re-locking while it does: a second RLock on
// the goroutine that already holds one can deadlock behind a queued
// writer).
func (it *Iter) holdsLock() bool { return it.locked.Load() }

// withLock runs fn under the cursor's document lock if it is still
// held, returning false otherwise. relmu keeps the lock pinned for
// fn's duration.
func (it *Iter) withLock(fn func() error) (bool, error) {
	it.relmu.RLock()
	defer it.relmu.RUnlock()
	if !it.locked.Load() {
		return false, nil
	}
	return true, fn()
}
