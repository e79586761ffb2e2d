package docstore

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sync"
	"sync/atomic"
	"time"

	"natix/internal/core"
	"natix/internal/pathindex"
	"natix/internal/telemetry"
	"natix/internal/xmlkit"
)

// IterOptions configure a lazy cursor.
type IterOptions struct {
	// Limit stops iteration after this many matches (0 = unlimited).
	// Reaching the limit stops the producer and releases the document
	// lock, exactly like exhausting the cursor.
	Limit int
}

// Iter is a lazy cursor over query matches. It holds the queried
// document's read lock from QueryIter until Close, exhaustion, or a
// terminal error, so the matches it yields stay valid while it is open:
// writers of the document block until the cursor is released. The
// producer behind it is the same streaming evaluator the eager Query
// uses, suspended between Next calls, so matches (and the record loads
// backing them) are produced only as the consumer pulls them —
// first-match latency is independent of result-set size.
//
// An Iter is owned by one goroutine: Next, Result, Err and Close must
// not be called concurrently. Results obtained from it may be consumed
// concurrently with iteration, but not concurrently with Close.
// Always Close a cursor that is not iterated to exhaustion; an open
// cursor blocks every writer of its document.
type Iter struct {
	store *Store
	doc   string
	cx    context.Context

	lock   *sync.RWMutex
	locked atomic.Bool // read by Result.view, possibly cross-goroutine

	// relmu pins the document-lock release against concurrent match
	// access: finish releases the document lock under relmu.Lock, and
	// Result.view runs lock-elided accessors under relmu.RLock, so the
	// lock can never be dropped mid-access by the iterating goroutine
	// exhausting (or cancelling) the cursor on another one.
	relmu sync.RWMutex

	next func() (Result, error, bool)
	stop func()

	// walker resolves the indexed route's postings to nodes. It belongs
	// to the producer — only the goroutine inside Next touches it — and
	// it keeps its record and its place in it between matches, so the
	// ascending postings of a record cost one record load and one facade
	// walk in total. It points into parsed records, which is safe exactly
	// as long as the cursor holds the document lock.
	walker core.FacadeWalker

	cur     Result
	err     error
	seen    int
	limit   int
	done    bool
	indexed bool

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
// granularity inside the producer, so cancelling it aborts the cursor
// promptly with the context's error.
func (s *Store) QueryIter(cx context.Context, name string, steps []Step, opts IterOptions) (*Iter, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("%w: empty query", ErrBadQuery)
	}
	if err := s.checkQuarantine(name); err != nil {
		return nil, err
	}
	if err := ctxErr(cx); err != nil {
		return nil, err
	}
	l := s.lockFor(name)
	l.RLock()
	info, ok := s.lookup(name)
	if !ok {
		l.RUnlock()
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	it := &Iter{store: s, doc: name, cx: cx, lock: l, limit: opts.Limit, start: telemetry.Now()}

	var seq iter.Seq2[Result, error]
	if info.Mode == ModeFlat {
		s.flatQueries.Add(1)
		it.kind = EvalFlat
		seq = s.flatSeq(cx, it, info, steps)
	} else {
		idx, err := s.indexFor(info, steps)
		if err != nil {
			l.RUnlock()
			return nil, err
		}
		if idx != nil {
			s.indexedQueries.Add(1)
			it.indexed = true
			it.kind = EvalIndexed
			seq = s.indexedSeq(cx, it, idx, steps)
		} else {
			s.scanQueries.Add(1)
			it.kind = EvalScan
			seq = s.scanSeq(cx, it, info, steps)
		}
	}
	it.next, it.stop = iter.Pull2(seq)
	it.locked.Store(true)
	it.span = s.startOp("cursor:"+string(it.kind), name)
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
	r, err, ok := it.next()
	if !ok {
		it.exhausted = true
		it.finish(nil)
		return false
	}
	if err != nil {
		it.finish(err)
		return false
	}
	it.cur = r
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
func (it *Iter) Indexed() bool { return it.indexed }

// Close stops the producer and releases the document lock. It is
// idempotent, safe after exhaustion, and returns Err.
func (it *Iter) Close() error {
	it.finish(nil)
	return it.err
}

// Abort terminates iteration with err — the API layer uses it when the
// database is closed under an open cursor.
func (it *Iter) Abort(err error) { it.finish(err) }

// finish tears the cursor down exactly once: remember a terminal
// error, stop the suspended producer, release the document lock. The
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
	it.stop()
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

// scanSeq adapts the navigating evaluator to a pull sequence.
func (s *Store) scanSeq(cx context.Context, it *Iter, info DocInfo, steps []Step) iter.Seq2[Result, error] {
	return func(yield func(Result, error) bool) {
		err := s.streamScan(cx, info, steps, func(ref core.NodeRef) error {
			if !yield(Result{Mode: ModeTree, Doc: info.Name, Ref: ref, store: s, iter: it}, nil) {
				return errStopIteration
			}
			return nil
		})
		if err != nil && !errors.Is(err, errStopIteration) {
			yield(Result{}, err)
		}
	}
}

// indexedSeq adapts the posting-list evaluator to a pull sequence,
// resolving each posting to a node ref only when the consumer reaches
// it.
func (s *Store) indexedSeq(cx context.Context, it *Iter, idx *pathindex.Handle, steps []Step) iter.Seq2[Result, error] {
	return func(yield func(Result, error) bool) {
		err := s.streamIndexed(cx, idx, steps, func(p pathindex.Posting) error {
			ref, err := it.resolve(p)
			if err != nil {
				return err
			}
			if !yield(Result{Mode: ModeTree, Doc: it.doc, Ref: ref, store: s, iter: it}, nil) {
				return errStopIteration
			}
			return nil
		})
		if err != nil && !errors.Is(err, errStopIteration) {
			yield(Result{}, err)
		}
	}
}

// resolve materializes one posting as a node ref, when the consumer
// reaches it, so the records of unconsumed matches are never loaded.
// Postings arrive in document order, so same-record matches come in
// runs: the walker loads a record once per run and makes each node
// lookup inside it a continuation of the previous match's.
//
//natix:noalloc
func (it *Iter) resolve(p pathindex.Posting) (core.NodeRef, error) {
	if err := it.walker.Load(it.store.trees, p.RID); err != nil {
		return core.NodeRef{}, err
	}
	return it.walker.Ref(int(p.Local))
}

// flatSeq adapts the flat-mode evaluator to a pull sequence. The blob
// read and parse happen lazily, on the first Next.
func (s *Store) flatSeq(cx context.Context, it *Iter, info DocInfo, steps []Step) iter.Seq2[Result, error] {
	return func(yield func(Result, error) bool) {
		err := s.streamFlat(cx, info, steps, func(n *xmlkit.Node) error {
			if !yield(Result{Mode: ModeFlat, Doc: info.Name, XML: n, store: s, iter: it}, nil) {
				return errStopIteration
			}
			return nil
		})
		if err != nil && !errors.Is(err, errStopIteration) {
			yield(Result{}, err)
		}
	}
}
