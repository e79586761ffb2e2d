package natix

import (
	"context"

	"natix/internal/docstore"
)

// PreparedQuery is a parsed and validated path expression. Preparing
// once moves parse errors (ErrBadQuery) to prepare time and amortizes
// parsing across evaluations: the same prepared query is reusable
// against any number of documents, from any number of goroutines
// concurrently. Query, QueryCount and QueryIter on DB are thin wrappers
// that prepare and evaluate in one call.
type PreparedQuery struct {
	db    *DB
	expr  string
	steps []docstore.Step
}

// Prepare parses and validates a path expression. A malformed
// expression fails here with ErrBadQuery (wrapped with the offending
// input). Parsing touches no database state, so Prepare takes no lock
// and works even on a closed DB — evaluating the prepared query is
// what fails with ErrClosed then.
func (db *DB) Prepare(expr string) (*PreparedQuery, error) {
	steps, err := docstore.ParseQuery(expr)
	if err != nil {
		return nil, err
	}
	return &PreparedQuery{db: db, expr: expr, steps: steps}, nil
}

// Expr returns the source expression the query was prepared from.
func (p *PreparedQuery) Expr() string { return p.expr }

// Query evaluates the prepared expression against the named document,
// materializing every match in document order.
func (p *PreparedQuery) Query(ctx context.Context, name string) ([]Match, error) {
	return viewE(p.db, func() ([]Match, error) {
		res, err := p.db.store.QuerySteps(ctx, name, p.steps)
		if err != nil {
			return nil, err
		}
		out := make([]Match, len(res))
		for i, r := range res {
			out[i] = Match{res: r}
		}
		return out, nil
	})
}

// Count returns the number of matches of the prepared expression
// against the named document without materializing them.
func (p *PreparedQuery) Count(ctx context.Context, name string) (int, error) {
	return viewE(p.db, func() (int, error) {
		return p.db.store.QueryCountSteps(ctx, name, p.steps)
	})
}

// Iter opens a lazy cursor over the matches of the prepared expression
// against the named document. See Cursor for the iteration contract.
func (p *PreparedQuery) Iter(ctx context.Context, name string, opts ...QueryOption) (*Cursor, error) {
	var qo queryOptions
	for _, o := range opts {
		o(&qo)
	}
	return viewE(p.db, func() (*Cursor, error) {
		it, err := p.db.store.QueryIter(ctx, name, p.steps, docstore.IterOptions{Limit: qo.limit})
		if err != nil {
			return nil, err
		}
		return &Cursor{db: p.db, it: it}, nil
	})
}
