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
	"slices"
	"strings"

	"natix/internal/dict"
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
	Route     string        `json:"route,omitempty"` // indexed only: what the path summary settles

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
	if p.Route != "" {
		fmt.Fprintf(&b, "\nroute: %s", p.Route)
	}
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
		p.Route = s.planSummary(idx, q.frames, false).route(steps[len(steps)-1].Name)
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

// summaryWalk is the multiplicity pass over a path summary, shared by
// Explain and the indexed route (planSummary). mult[q] is how many times
// each node with summary path q is in the context set; 0 is the virtual
// document node, parent of the root path. Every node has one ancestor on
// each proper prefix of its label path, so for name tests it is exact.
type summaryWalk struct {
	idx        *pathindex.Handle
	mult, next []int64
}

// summaryWalk returns a pooled walk over idx's summary whose context set
// is the document node; put it back with s.walks.Put.
func (s *Store) summaryWalk(idx *pathindex.Handle) *summaryWalk {
	w, _ := s.walks.Get().(*summaryWalk)
	if w == nil {
		w = new(summaryWalk)
	}
	n := idx.NumPaths() + 1
	w.idx = idx
	w.mult = slices.Grow(w.mult[:0], n)[:n]
	w.next = slices.Grow(w.next[:0], n)[:n]
	clear(w.mult)
	w.mult[0] = 1
	return w
}

// step moves the context set over one name-test step, position ignored:
// a node reached from k context nodes counts k times in the output. It
// returns the output's size, the sum of mult times Count.
func (w *summaryWalk) step(d *dict.Dict, st *frame) int64 {
	idx, mult, next := w.idx, w.mult, w.next
	clear(next)
	var size int64
	for q := 1; q < len(mult); q++ {
		node := idx.Path(pathindex.PathID(q))
		if ok, _ := st.matchesLabel(d, node.Label); !ok {
			continue
		}
		m := mult[node.Parent]
		if st.Descendant {
			// Every proper ancestor path, the document node included.
			for a := node.Parent; a != pathindex.NilPath; {
				a = idx.Path(a).Parent
				m += mult[a]
			}
		}
		next[q] = m
		size += m * int64(node.Count)
	}
	w.mult, w.next = next, mult
	return size
}

// instances returns the size of the context set, the document node
// included.
func (w *summaryWalk) instances() int64 {
	n := w.mult[0]
	for q := 1; q < len(w.mult); q++ {
		n += w.mult[q] * int64(w.idx.Path(pathindex.PathID(q)).Count)
	}
	return n
}

// nested reports whether the context set holds a node inside another:
// whether one of its paths has a proper ancestor path in it.
func (w *summaryWalk) nested() bool {
	for q := 1; q < len(w.mult); q++ {
		if w.mult[q] == 0 {
			continue
		}
		for a := w.idx.Path(pathindex.PathID(q)).Parent; a != pathindex.NilPath; a = w.idx.Path(a).Parent {
			if w.mult[a] > 0 {
				return true
			}
		}
	}
	return false
}

// estimateSummary prices each step with the summary walk: exact until a
// positional predicate (upper bounds from there on) or a #text step
// (unknown from there on).
func (s *Store) estimateSummary(idx *pathindex.Handle, steps []frame, p *Plan) {
	w := s.summaryWalk(idx)
	defer s.walks.Put(w)
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
		ctx := w.instances()
		sp.EstMatches = w.step(s.dict, st)
		if st.Pos > 0 {
			// At most one match per context node; the walk keeps the
			// unpredicated output as an upper bound for later steps.
			sp.EstMatches = min(sp.EstMatches, ctx)
			p.Exact = false
		}
		p.Steps = append(p.Steps, sp)
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
