package natix

// EXPLAIN for path queries: which route the query takes, why, and how
// many matches each step should produce — priced from resident
// metadata (the path summary), without touching records. Choosing the
// route does what a query does to choose it: it loads the posting
// lists of the step labels into the index handle, where the query
// finds them, and so knows an unreadable list before promising the
// index. ExplainRun additionally executes the query and reports the
// actual match count and logical page reads next to the estimates, so
// an estimate can be audited in one call.
//
// # Quick start
//
//	q, _ := db.Prepare("/PLAY/ACT[3]/SCENE[2]//SPEAKER")
//	ex, _ := q.Explain(ctx, "othello")
//	fmt.Println(ex)            // evaluator, reason, per-step estimates
//
//	ex, _ = q.ExplainRun(ctx, "othello")
//	fmt.Println(ex.EstMatches, ex.ActualMatches, ex.LogicalReads)

import (
	"context"
	"fmt"
	"time"

	"natix/internal/docstore"
	"natix/internal/telemetry"
)

// EvaluatorKind names a query evaluation route: "indexed" (posting
// lists), "scan" (navigating the stored tree), or "flat" (parsing a
// flat-mode document).
type EvaluatorKind = docstore.EvaluatorKind

// The three routes: one evaluator, three sources of candidates.
const (
	EvalIndexed = docstore.EvalIndexed
	EvalScan    = docstore.EvalScan
	EvalFlat    = docstore.EvalFlat
)

// ExplainStep is the plan of one location step.
type ExplainStep = docstore.StepPlan

// Explain is a query plan, optionally annotated with the measured
// outcome of one execution (ExplainRun).
type Explain struct {
	Query    string        `json:"query"`
	Document string        `json:"document"`
	Plan     docstore.Plan `json:"plan"`

	// Execution annotations; meaningful only when Executed is true.
	Executed      bool          `json:"executed"`
	ActualMatches int64         `json:"actual_matches,omitempty"`
	LogicalReads  int64         `json:"logical_reads,omitempty"` // page accesses the run performed
	Duration      time.Duration `json:"duration,omitempty"`
}

// String renders the explanation for terminal output.
func (e Explain) String() string {
	out := fmt.Sprintf("%s on %q\n%s", e.Query, e.Document, e.Plan)
	if e.Executed {
		out += fmt.Sprintf("\nactual: %d matches, %d logical reads, %v",
			e.ActualMatches, e.LogicalReads, e.Duration)
	}
	return out
}

// Explain plans the prepared expression against the named document
// without executing it: the evaluator choice is made with exactly the
// test the engine applies, and per-step cardinalities are estimated
// from the document's path summary (exactly, for name-test-only
// queries) or counted by parsing (flat mode).
func (p *PreparedQuery) Explain(ctx context.Context, name string) (Explain, error) {
	return viewE(p.db, func() (Explain, error) {
		plan, err := p.db.store.ExplainSteps(ctx, name, p.steps)
		if err != nil {
			return Explain{}, err
		}
		return Explain{Query: p.expr, Document: name, Plan: plan}, nil
	})
}

// ExplainRun plans the prepared expression, then executes it (counting
// matches without materializing them) and annotates the plan with the
// actual match count, the logical page reads the run performed, and
// its duration — estimate and reality side by side.
func (p *PreparedQuery) ExplainRun(ctx context.Context, name string) (Explain, error) {
	return viewE(p.db, func() (Explain, error) {
		plan, err := p.db.store.ExplainSteps(ctx, name, p.steps)
		if err != nil {
			return Explain{}, err
		}
		ex := Explain{Query: p.expr, Document: name, Plan: plan}
		preReads := p.db.pool.Stats().LogicalReads
		start := telemetry.Now()
		n, err := p.db.store.QueryCountSteps(ctx, name, p.steps)
		if err != nil {
			return Explain{}, err
		}
		ex.Executed = true
		ex.ActualMatches = int64(n)
		ex.Duration = telemetry.Since(start)
		ex.LogicalReads = p.db.pool.Stats().LogicalReads - preReads
		return ex, nil
	})
}

// Explain plans a path expression against a document in one call (see
// PreparedQuery.Explain).
func (db *DB) Explain(name, query string) (Explain, error) {
	q, err := db.Prepare(query)
	if err != nil {
		return Explain{}, err
	}
	return q.Explain(context.Background(), name)
}

// ExplainRun plans and executes a path expression in one call (see
// PreparedQuery.ExplainRun).
func (db *DB) ExplainRun(ctx context.Context, name, query string) (Explain, error) {
	q, err := db.Prepare(query)
	if err != nil {
		return Explain{}, err
	}
	return q.ExplainRun(ctx, name)
}
