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
//
// DB.Close does not wait for open cursors. Each cursor ends at its next
// Next with Err ErrClosed; a Next already running when Close starts
// finishes beside it and either returns its match, read from pages the
// pool still holds, or ends with ErrClosed once it needs the closed
// device. A cursor must still be closed after DB.Close.
type Cursor struct {
	db *DB
	it *docstore.Iter
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
// Next returns false the document lock has been released. Next takes no
// lifecycle lock: DB.Close does not wait for a cursor, it stops it (see
// Cursor).
//
//natix:noalloc
func (c *Cursor) Next() bool {
	// No lifecycle lock (see Cursor): Close raises closing before it
	// waits, and a cursor must stop rather than wait — a writer queued
	// behind this cursor's document lock holds db.mu shared, and Close
	// waits behind that writer for a release only this cursor gives.
	if c.db.closing.Load() {
		c.it.Abort(ErrClosed)
		return false
	}
	return c.it.Next()
}

// Match returns the current match. It is valid after a true Next and
// stays consumable (Text, Markup) after iteration moves on.
func (c *Cursor) Match() Match { return Match{res: c.it.Result()} }

// Err returns the error that terminated iteration, if any. A cursor
// stopped by Close, a limit, or exhaustion has a nil Err; one stopped by
// DB.Close, also mid-read, has an Err that is ErrClosed.
func (c *Cursor) Err() error { return closedErr(c.it.Err()) }

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
