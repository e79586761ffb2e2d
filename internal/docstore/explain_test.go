package docstore

import (
	"context"
	"strings"
	"testing"

	"natix/internal/core"
	"natix/internal/telemetry"
)

// hasPositional reports whether any step carries a positional
// predicate (summary estimates become upper bounds there).
func hasPositional(steps []Step) bool {
	for _, st := range steps {
		if st.Pos > 0 {
			return true
		}
	}
	return false
}

// TestExplainMatchesActualIndexedAndScan plans every equivalence query
// against an indexed store and checks the plan against reality: the
// chosen evaluator is the one the engine actually uses, and for plans
// the summary can price, the estimate agrees with (or bounds) the true
// match count.
func TestExplainMatchesActualIndexedAndScan(t *testing.T) {
	s, _ := newDocStore(t, 512, core.Config{})
	enableIndex(t, s)
	importBoth(t, s)

	for _, q := range equivalenceQueries {
		doc := docFor(q)
		steps, err := ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := s.ExplainSteps(context.Background(), doc, steps)
		if err != nil {
			t.Fatalf("explain %s on %s: %v", q, doc, err)
		}
		fallback := strings.Contains(q, "*") || strings.Contains(q, "#text")
		wantEval := EvalIndexed
		if fallback {
			wantEval = EvalScan
		}
		if plan.Evaluator != wantEval {
			t.Errorf("%s: evaluator %s, want %s (%s)", q, plan.Evaluator, wantEval, plan.Reason)
		}
		if plan.NumPaths <= 0 || plan.NumNodes <= 0 {
			t.Errorf("%s: plan carries no summary shape: %+v", q, plan)
		}
		if len(plan.Steps) != len(steps) {
			t.Fatalf("%s: %d step plans for %d steps", q, len(plan.Steps), len(steps))
		}
		actual, err := s.QueryCount(doc, q)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case strings.Contains(q, "#text"):
			if plan.EstMatches != -1 || plan.Exact {
				t.Errorf("%s: #text step should be unpriceable, got est=%d exact=%v", q, plan.EstMatches, plan.Exact)
			}
		case hasPositional(steps):
			if plan.Exact {
				t.Errorf("%s: positional predicate cannot be exact", q)
			}
			if plan.EstMatches < int64(actual) {
				t.Errorf("%s: est %d below actual %d (must be an upper bound)", q, plan.EstMatches, actual)
			}
		default:
			if !plan.Exact {
				t.Errorf("%s: name-test-only plan should be exact", q)
			}
			if plan.EstMatches != int64(actual) {
				t.Errorf("%s: est %d, actual %d", q, plan.EstMatches, actual)
			}
		}
	}
}

// TestExplainScanWithoutIndex plans on a store with no index: the scan
// is chosen, the reason says why, and estimates are unknown.
func TestExplainScanWithoutIndex(t *testing.T) {
	s, _ := newDocStore(t, 512, core.Config{})
	importBoth(t, s)
	plan, err := s.Explain("p", "/PLAY//SPEAKER")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Evaluator != EvalScan {
		t.Fatalf("evaluator %s, want scan", plan.Evaluator)
	}
	if !strings.Contains(plan.Reason, "not enabled") {
		t.Errorf("reason %q should name the missing index", plan.Reason)
	}
	if plan.EstMatches != -1 || plan.Exact {
		t.Errorf("no summary, yet est=%d exact=%v", plan.EstMatches, plan.Exact)
	}
	for _, sp := range plan.Steps {
		if sp.EstMatches != -1 {
			t.Errorf("step %+v priced without a summary", sp)
		}
	}
}

// TestExplainFlatExact plans queries against a flat-mode document:
// the flat evaluator is chosen and every step count is exact.
func TestExplainFlatExact(t *testing.T) {
	s, _ := newDocStore(t, 512, core.Config{})
	if _, err := s.ImportFlat("f", strings.NewReader(nested)); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"/DOC//A", "//DIV/A", "//DIV[1]//A", "//NOSUCH"} {
		plan, err := s.Explain("f", q)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Evaluator != EvalFlat {
			t.Fatalf("%s: evaluator %s, want flat", q, plan.Evaluator)
		}
		if !plan.Exact {
			t.Errorf("%s: flat plans are exact by construction", q)
		}
		actual, err := s.QueryCount("f", q)
		if err != nil {
			t.Fatal(err)
		}
		if plan.EstMatches != int64(actual) {
			t.Errorf("%s: est %d, actual %d", q, plan.EstMatches, actual)
		}
	}
}

// TestExplainStringRendering smoke-tests the CLI rendering.
func TestExplainStringRendering(t *testing.T) {
	s, _ := newDocStore(t, 512, core.Config{})
	enableIndex(t, s)
	importBoth(t, s)
	plan, err := s.Explain("n", "/DOC//A")
	if err != nil {
		t.Fatal(err)
	}
	out := plan.String()
	for _, want := range []string{"evaluator=indexed", "summary:", "//A", "matches:"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

// TestExplainNamesSummaryRoute plans indexed queries of each summary
// route and runs them: the plan names the route, and the queries the
// path summary settles — a count, or matches by one posting scan — are
// counted in IndexStats.SummaryQueries and docstore.queries_summary as
// well as in the indexed queries.
func TestExplainNamesSummaryRoute(t *testing.T) {
	s, _ := newDocStore(t, 512, core.Config{})
	enableIndex(t, s)
	importBoth(t, s)
	reg := telemetry.NewRegistry()
	s.AttachTelemetry(reg, nil)

	for _, c := range []struct{ doc, query, route string }{
		{"p", "/PLAY/ACT/SCENE/SPEECH/LINE", "count from the path summary; matches by one scan of LINE's postings on 1 of the summary's paths"},
		{"p", "//TITLE", "one scan of TITLE's postings on 3 of the summary's paths"},
		{"n", "//DIV/A", "matches step by step (the contexts of step 2 nest)"},
		{"n", "//DIV//A", "matches step by step (a match is reached from 2 contexts)"},
		{"p", "//SPEECH[2]", "step by step over the postings (a positional predicate"},
		{"n", "//DIV/*", ""},
	} {
		plan, err := s.Explain(c.doc, c.query)
		if err != nil {
			t.Fatal(err)
		}
		if c.route == "" && plan.Route != "" || !strings.Contains(plan.Route, c.route) {
			t.Errorf("%s: route %q, want %q", c.query, plan.Route, c.route)
		}
		if c.route != "" && !strings.Contains(plan.String(), "\nroute: "+plan.Route) {
			t.Errorf("%s: rendering misses the route:\n%s", c.query, plan)
		}
	}

	before := s.IndexStats()
	run := func(count bool, doc, query string) {
		t.Helper()
		var err error
		if count {
			_, err = s.QueryCount(doc, query)
		} else {
			_, err = s.Query(doc, query)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	run(true, "p", "//SPEECH")                     // count from the summary
	run(true, "n", "//DIV//A")                     // count from the summary
	run(false, "p", "/PLAY/ACT/SCENE/SPEECH/LINE") // one scan
	run(false, "n", "//DIV/A")                     // step by step: nested contexts
	run(true, "p", "//SPEECH[2]")                  // step by step: positional
	run(false, "n", "//DIV/*")                     // navigating scan
	st := s.IndexStats()
	if d := st.IndexedQueries - before.IndexedQueries; d != 5 {
		t.Errorf("%d indexed queries, want 5", d)
	}
	if d := st.SummaryQueries - before.SummaryQueries; d != 3 {
		t.Errorf("%d summary queries, want 3", d)
	}
	if d := st.ScanQueries - before.ScanQueries; d != 1 {
		t.Errorf("%d scan queries, want 1", d)
	}
	if got := reg.Snapshot().Counters["docstore.queries_summary"]; got != st.SummaryQueries {
		t.Errorf("docstore.queries_summary = %d, IndexStats says %d", got, st.SummaryQueries)
	}
}
