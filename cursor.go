package natix

import (
	"context"
	"iter"

	"natix/internal/docstore"
)

// QueryOption configures a cursor opened by QueryIter or
// PreparedQuery.Iter.
type QueryOption func(*queryOptions)

type queryOptions struct {
	limit int
}

// WithLimit stops the cursor after n matches, releasing the document
// lock and the evaluation as soon as the n-th match has been consumed —
// the evaluator never reads past it. n <= 0 means no limit.
func WithLimit(n int) QueryOption {
	return func(o *queryOptions) {
		if n > 0 {
			o.limit = n
		}
	}
}

// Cursor is a lazy iterator over query matches:
//
//	cur, err := db.QueryIter(ctx, "othello", "//SPEAKER", natix.WithLimit(10))
//	if err != nil { ... }
//	defer cur.Close()
//	for cur.Next() {
//		text, _ := cur.Match().Text()
//		...
//	}
//	if err := cur.Err(); err != nil { ... }
//
// Matches are produced on demand: the evaluator behind the cursor keeps
// its place between Next calls and loads only the records the consumed
// matches touch, so the latency and I/O of the first match are
// independent of the size of the full result set. Iteration stops early
// on a positional predicate, a WithLimit bound, context cancellation,
// or Close.
//
// The cursor holds the queried document's read lock from QueryIter
// until Close, exhaustion, or a terminal error. While it is open,
// mutations of that document (Delete, Convert, edits) block — always
// Close a cursor you do not iterate to exhaustion, and never mutate the
// queried document from the iterating goroutine while the cursor is
// open. A Cursor is owned by one goroutine; Matches pulled from it may
// be consumed concurrently with iteration, but not concurrently with
// Close.
type Cursor struct {
	db  *DB
	it  *docstore.Iter
	cur Match
}

// QueryIter opens a lazy cursor over the matches of a path expression
// against the named document, in document order. It is
// Prepare(query).Iter(ctx, name, opts...) in one call.
func (db *DB) QueryIter(ctx context.Context, name, query string, opts ...QueryOption) (*Cursor, error) {
	p, err := db.Prepare(query)
	if err != nil {
		return nil, err
	}
	return p.Iter(ctx, name, opts...)
}

// Next advances to the next match, returning false when the cursor is
// exhausted, the limit is reached, the context is cancelled, the DB is
// closed (or closing), or an error occurs — consult Err to tell. Once
// Next returns false the document lock has been released.
//
//natix:noalloc
func (c *Cursor) Next() bool {
	// TryRLock, not RLock: db.mu's only writer is Close, so a failed
	// try means the DB is closing or closed. Blocking here instead
	// could deadlock the shutdown — a writer stuck behind this cursor's
	// document lock keeps db.mu read-held, Close queues behind that
	// writer, and a blocking RLock would queue behind Close, a cycle
	// only this cursor's release can break. Failing fast releases it.
	if !c.db.mu.TryRLock() {
		c.it.Abort(ErrClosed)
		return false
	}
	if c.db.closed {
		c.db.mu.RUnlock()
		c.it.Abort(ErrClosed)
		return false
	}
	ok := c.it.Next()
	c.db.mu.RUnlock()
	if ok {
		c.cur = Match{res: c.it.Result()}
	}
	return ok
}

// Match returns the current match. It is valid after a true Next and
// stays consumable (Text, Markup) after iteration moves on.
func (c *Cursor) Match() Match { return c.cur }

// Err returns the error that terminated iteration, if any. A cursor
// stopped by Close, a limit, or exhaustion has a nil Err.
func (c *Cursor) Err() error { return c.it.Err() }

// Indexed reports whether the cursor runs on the posting-list
// evaluator (as opposed to the navigating scan or a flat-mode parse).
func (c *Cursor) Indexed() bool { return c.it.Indexed() }

// Close releases the document lock and the evaluation's scratch. It is
// idempotent, safe after exhaustion, and returns Err. Close never
// touches the database itself, so it works — and must still be called —
// after DB.Close.
func (c *Cursor) Close() error { return c.it.Close() }

// All adapts the cursor to a Go 1.23 range-over-func sequence. The
// cursor is closed when the loop terminates, normally or by break; a
// terminal error is yielded as the final pair's second value:
//
//	for m, err := range cur.All() {
//		if err != nil { ... break ... }
//		text, _ := m.Text()
//	}
func (c *Cursor) All() iter.Seq2[Match, error] {
	return func(yield func(Match, error) bool) {
		defer c.Close()
		for c.Next() {
			if !yield(c.Match(), nil) {
				return
			}
		}
		if err := c.Err(); err != nil {
			yield(Match{}, err)
		}
	}
}
