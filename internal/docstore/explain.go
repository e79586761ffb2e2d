package docstore

// Query explanation: which route a query would take, why, and
// how many matches each step is expected to produce. The estimator
// runs entirely on resident metadata — the path summary for tree-mode
// documents — so explaining an indexed or scan query touches no
// posting blobs and no records. Flat-mode documents have no metadata
// besides the stream itself, so their explanation parses the document
// once and counts exactly; that is the same cost the paper ascribes to
// ANY structural access of flat storage, and precisely the point the
// comparison makes.

import (
	"context"
	"fmt"
	"strings"

	"natix/internal/pathindex"
)

// StepPlan is the per-step slice of a Plan.
type StepPlan struct {
	Step       Step  `json:"step"`
	EstMatches int64 `json:"est_matches"` // matches this step produces; -1 unknown
}

// Plan describes how a query against one document would be evaluated.
type Plan struct {
	Doc       string        `json:"doc"`
	Evaluator EvaluatorKind `json:"evaluator"`
	Reason    string        `json:"reason"`

	// Path-summary shape (zero when no summary was available).
	NumPaths int `json:"num_paths,omitempty"`
	NumNodes int `json:"num_nodes,omitempty"`

	Steps      []StepPlan `json:"steps"`
	EstMatches int64      `json:"est_matches"` // final matches; -1 unknown
	// Exact reports that the estimates are exact counts. Summary-based
	// estimates are exact for name-test-only queries (each node has
	// exactly one ancestor on every prefix of its label path, so
	// per-path multiplicities are uniform); a positional predicate
	// makes everything downstream an upper bound, and a #text step
	// makes it unknown (text nodes have no summary path). Flat-mode
	// counts are exact by construction.
	Exact bool `json:"exact"`
}

// String renders the plan compactly for CLI output.
func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "evaluator=%s (%s)", p.Evaluator, p.Reason)
	if p.NumPaths > 0 {
		fmt.Fprintf(&b, "\nsummary: %d paths, %d nodes", p.NumPaths, p.NumNodes)
	}
	for _, sp := range p.Steps {
		if sp.EstMatches < 0 {
			fmt.Fprintf(&b, "\n  %s -> est ?", sp.Step)
		} else {
			fmt.Fprintf(&b, "\n  %s -> est %d", sp.Step, sp.EstMatches)
		}
	}
	kind := "estimated"
	if p.Exact {
		kind = "exact"
	}
	if p.EstMatches < 0 {
		fmt.Fprintf(&b, "\nmatches: unknown")
	} else {
		fmt.Fprintf(&b, "\nmatches: %d (%s)", p.EstMatches, kind)
	}
	return b.String()
}

// Explain parses a path expression and plans it against a document
// without executing it.
func (s *Store) Explain(name, query string) (Plan, error) {
	steps, err := ParseQuery(query)
	if err != nil {
		return Plan{}, err
	}
	return s.ExplainSteps(context.Background(), name, steps)
}

// ExplainSteps plans a pre-parsed expression against a document: it
// opens the query exactly as an evaluation would (openQuery: the same
// refusals, the same route), then estimates per-step cardinalities from
// the path summary (tree mode) or counts them by parsing (flat mode).
func (s *Store) ExplainSteps(cx context.Context, name string, steps []Step) (Plan, error) {
	q, err := s.openQuery(cx, name, steps)
	if err != nil {
		return Plan{}, err
	}
	defer q.lock.RUnlock()
	p := Plan{Doc: name, Evaluator: q.kind, EstMatches: -1}
	idx := q.idx
	switch q.kind {
	case EvalFlat:
		p.Reason = "flat-mode document: structure is only accessible by parsing"
		err := s.estimateFlat(q, &p)
		return p, err
	case EvalIndexed:
		p.Reason = "stored path index covers the query (plain name tests only)"
	default:
		p.Reason = s.scanReason(q.info, steps)
		// A scan forced by a non-name step can still be estimated from
		// the summary of a stored index.
		if s.pindex != nil && s.pindex.Has(name) {
			if idx, err = s.pindex.Get(name); err != nil {
				idx = nil // unreadable index: plan without estimates
			}
		}
	}
	if idx != nil {
		p.NumPaths = idx.NumPaths()
		p.NumNodes = idx.NumNodes()
		s.estimateSummary(idx, q.frames, &p)
	} else {
		for _, st := range steps {
			p.Steps = append(p.Steps, StepPlan{Step: st, EstMatches: -1})
		}
	}
	return p, nil
}

// scanReason explains why a tree-mode query falls back to the
// navigating scan, mirroring indexFor's tests in order.
func (s *Store) scanReason(info DocInfo, steps []Step) string {
	if s.pindex == nil || !s.indexOn {
		return "navigating scan: path indexing is not enabled"
	}
	for _, st := range steps {
		if st.Name == "*" || st.Name == "#text" {
			return fmt.Sprintf("navigating scan: step %q is not a plain name test (postings cover elements only)", st.Name)
		}
	}
	if !s.pindex.Has(info.Name) {
		return "navigating scan: document has no stored path index (reindex to build one)"
	}
	return "navigating scan: stored path index unreadable (reindex to repair)"
}

// estimateSummary walks the path summary, carrying for each summary
// path the per-instance multiplicity of the context set (how many
// times each node with that path is in the context). Multiplicities
// stay uniform across the instances of one path because every node has
// exactly one ancestor on each proper prefix of its label path — which
// is what makes the counts exact until a positional predicate (upper
// bounds from there on) or a #text step (unknown from there on).
func (s *Store) estimateSummary(idx *pathindex.Handle, steps []frame, p *Plan) {
	n := idx.NumPaths()
	// mult[q] is the context multiplicity of summary path q; index 0 is
	// the virtual document node above the root (ancestor of every path,
	// parent of the depth-1 path), which seeds the first step.
	mult := make([]int64, n+1)
	mult[0] = 1
	p.Exact = true
	unknown := false
	for i := range steps {
		st := &steps[i]
		sp := StepPlan{Step: st.Step, EstMatches: -1}
		if unknown || st.kind == nameText {
			unknown = true
			p.Exact = false
			p.Steps = append(p.Steps, sp)
			continue
		}
		// Total context instances before this step — the bound a
		// positional predicate clamps to (at most one match per context
		// node survives... per context node there is at most one
		// selected match, so at most as many as there are instances).
		var ctxInstances int64 = mult[0]
		for q := 1; q <= n; q++ {
			if mult[q] > 0 {
				ctxInstances += mult[q] * int64(idx.Path(pathindex.PathID(q)).Count)
			}
		}
		next := make([]int64, n+1)
		var est int64
		for q := 1; q <= n; q++ {
			node := idx.Path(pathindex.PathID(q))
			if ok, _ := st.matchesLabel(s.dict, node.Label); !ok {
				continue
			}
			var m int64
			if st.Descendant {
				// Sum the multiplicities of every proper ancestor path
				// (the virtual document node included).
				for a := node.Parent; ; {
					m += mult[a]
					if a == pathindex.NilPath {
						break
					}
					a = idx.Path(a).Parent
				}
			} else {
				m = mult[node.Parent]
			}
			if m > 0 {
				next[q] = m
				est += m * int64(node.Count)
			}
		}
		if st.Pos > 0 {
			// At most one match per context node; keep the unpredicated
			// context as an upper bound for later steps.
			if est > ctxInstances {
				est = ctxInstances
			}
			p.Exact = false
		}
		sp.EstMatches = est
		p.Steps = append(p.Steps, sp)
		mult = next
		if est == 0 {
			// Nothing survives; later steps are exactly empty (unless
			// already inexact).
			for q := range next {
				next[q] = 0
			}
		}
	}
	if !unknown {
		p.EstMatches = p.Steps[len(p.Steps)-1].EstMatches
	}
}

// estimateFlat counts each step prefix exactly by evaluating it over
// the parsed document — one parse, one drained machine per prefix.
func (s *Store) estimateFlat(q query, p *Plan) error {
	t, w := &parsedTree{s: s, blob: q.info.Root}, new(parsedWalk)
	for i := range q.frames {
		m := newMachine(w.reset(t, q.cx, i+1), q.frames[:i+1])
		count := int64(0)
		ok, err := m.match(nil)
		for ; ok; ok, err = m.match(nil) {
			count++
		}
		if err != nil {
			return err
		}
		p.Steps = append(p.Steps, StepPlan{Step: q.frames[i].Step, EstMatches: count})
	}
	p.EstMatches = p.Steps[len(p.Steps)-1].EstMatches
	p.Exact = true
	return nil
}
