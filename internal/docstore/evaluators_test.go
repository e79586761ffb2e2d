package docstore

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"natix/internal/core"
	"natix/internal/xmlkit"
)

// genNestedXML renders a seeded random document for the evaluator
// property test: a handful of element names nested in each other at
// random (so //A//A reaches a node through several contexts), the root
// sometimes one of them, attributes (empty values included), text with
// the characters escapes rewrite, empty elements, nodes up to twelve
// children wide and nine levels deep.
func genNestedXML(rng *rand.Rand) string {
	names := []string{"A", "B", "C", "D"}
	words := []string{"x", "a<b", "Tom & Jerry", `say "hi"`, "longer run of words to fill records"}
	budget := 150 + rng.Intn(250)
	var gen func(name string, depth int) *xmlkit.Node
	gen = func(name string, depth int) *xmlkit.Node {
		n := xmlkit.NewElement(name)
		if rng.Intn(3) == 0 {
			n.SetAttr("id", words[rng.Intn(len(words))])
		}
		if rng.Intn(5) == 0 {
			n.SetAttr("k", "")
		}
		width := rng.Intn(5)
		if rng.Intn(8) == 0 {
			width = 6 + rng.Intn(7)
		}
		if depth >= 9 {
			width = 0
		}
		text := false // no two text nodes side by side: a parser reads them as one
		for i := 0; i < width && budget > 0; i++ {
			budget--
			if !text && rng.Intn(3) == 0 {
				n.Append(xmlkit.NewText(words[rng.Intn(len(words))]))
				text = true
				continue
			}
			n.Append(gen(names[rng.Intn(len(names))], depth+1))
			text = false
		}
		return n
	}
	root := "R"
	if rng.Intn(2) == 0 {
		root = names[rng.Intn(len(names))]
	}
	doc := xmlkit.NewElement(root)
	for budget > 0 {
		budget--
		doc.Append(gen(names[rng.Intn(len(names))], 2))
	}
	return xmlkit.SerializeString(doc)
}

// genPath draws a path over the four constructs. plain paths hold
// element names only, so an indexed store answers them from its
// postings; the others mix in "*", "#text", a name no document holds
// ("ZZ"), one only another document holds ("W") and an attribute.
func genPath(rng *rand.Rand, root string, plain bool) string {
	names := []string{"A", "B", "C", "D", "A", "B", "C", "D", "A", "B", "C", "D", root, "W", "ZZ", "@id"}
	var b strings.Builder
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		st := Step{Descendant: rng.Intn(9) < 4, Name: names[rng.Intn(len(names))]}
		if !plain {
			switch rng.Intn(6) {
			case 0:
				st.Name = "*"
			case 1:
				st.Name = "#text"
			}
		}
		if i == 0 && !st.Descendant && rng.Intn(5) > 0 {
			st.Name = root // a leading child step selects the root or nothing
		}
		switch rng.Intn(10) {
		case 0, 1:
			st.Pos = 1 + rng.Intn(3)
		case 2:
			st.Pos = 4 + rng.Intn(8) // past the last sibling, mostly
		}
		b.WriteString(st.String())
	}
	return b.String()
}

// storedShape rebuilds a parsed tree in the shape a tree-mode document
// is stored in — every attribute an "@name" element with its value as a
// text child, ahead of the element's content — and records for each
// node of it the markup a match on that node reads out as.
func storedShape(n *xmlkit.Node, markup map[*xmlkit.Node]string) *xmlkit.Node {
	if n.IsText() {
		out := xmlkit.NewText(n.Text)
		markup[out] = xmlkit.SerializeString(n)
		return out
	}
	out := xmlkit.NewElement(n.Name)
	markup[out] = xmlkit.SerializeString(n)
	for _, a := range n.Attrs {
		val := xmlkit.NewText(a.Value)
		markup[val] = xmlkit.SerializeString(val)
		attr := xmlkit.NewElement(AttrPrefix+a.Name, val)
		markup[attr] = "<" + attr.Name + ">" + markup[val] + "</" + attr.Name + ">"
		out.Append(attr)
	}
	for _, c := range n.Children {
		out.Append(storedShape(c, markup))
	}
	return out
}

// evalSource is one store of the property test: the document under one
// representation, and the tree the reference evaluator is run over for
// it.
type evalSource struct {
	name   string
	s      *Store
	ref    *xmlkit.Node
	markup func(*xmlkit.Node) string
	// kind is the route a path takes here, given whether it is plain.
	kind func(plain bool) EvaluatorKind
}

// evalSources stores text three ways at 512-byte pages — records split,
// postings cross proxies — next to a second document that interns "W".
func evalSources(t *testing.T, text string) []evalSource {
	t.Helper()
	const other = `<Q><W>w</W></Q>`
	doc, err := xmlkit.ParseString(text, xmlkit.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stored := map[*xmlkit.Node]string{}
	shape := storedShape(doc.Root, stored)

	indexed, _ := newDocStore(t, 512, core.Config{})
	enableIndex(t, indexed)
	plain, _ := newDocStore(t, 512, core.Config{})
	flat, _ := newDocStore(t, 512, core.Config{})
	for _, s := range []*Store{indexed, plain} {
		for name, src := range map[string]string{"d": text, "o": other} {
			if _, err := s.ImportXML(name, strings.NewReader(src)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := flat.ImportFlat("d", strings.NewReader(text)); err != nil {
		t.Fatal(err)
	}
	storedMarkup := func(n *xmlkit.Node) string { return stored[n] }
	return []evalSource{
		{"indexed", indexed, shape, storedMarkup, func(plain bool) EvaluatorKind {
			if plain {
				return EvalIndexed
			}
			return EvalScan
		}},
		{"navigating", plain, shape, storedMarkup, func(bool) EvaluatorKind { return EvalScan }},
		{"flat", flat, doc.Root, xmlkit.SerializeString, func(bool) EvaluatorKind { return EvalFlat }},
	}
}

// TestEvaluatorsAgreeWithReference holds the one machine to the
// recursive evaluator it replaced (reference_test.go): seeded random
// documents × random paths × the three sources × the four consumers —
// cursor, cursor with a limit, eager Query, Count — and, on the stored
// sources, the navigating scan over decoded records read out through
// the decoded tree (treeread_test.go), the route the record images
// replaced. Every combination must produce the reference's match list:
// the same markup, in the same order, duplicates included. The
// hand-written corner cases (equivalenceQueries over the play and the
// nested document) run through the same check.
//
// On the indexed store a plain path also takes the summary route
// (summaryPlan): its Count, from the path summary, must equal the
// navigating scan's drained count and the eager Query's length, and a
// query run as one posting scan must return the navigating scan's
// matches in the same order. Each seed also runs //X/Y and //X//Y for
// every name X, so that it has a query run as one scan, one refused
// because a child step's contexts nest, and one refused because a match
// is reached from several contexts.
func TestEvaluatorsAgreeWithReference(t *testing.T) {
	cx := context.Background()
	ran := map[EvaluatorKind]int{}
	nonEmpty, dups, cut := 0, 0, 0
	var rewritten, nest, mult int // summary routes of the current seed

	summary := func(t *testing.T, srcs []evalSource, query string, steps []Step) {
		t.Helper()
		ix, nav := srcs[0].s, srcs[1].s
		q, err := ix.openQuery(cx, "d", steps)
		if err != nil {
			t.Fatal(err)
		}
		p := ix.planSummary(q.idx, q.frames, false)
		q.lock.RUnlock()
		if q.kind != EvalIndexed || p.exact != !hasPositional(steps) {
			t.Fatalf("%s: route %s, exact plan %v", query, q.kind, p.exact)
		}
		if !p.exact {
			return
		}
		switch {
		case p.scan:
			rewritten++
		case p.nestAt >= 0:
			nest++
		default:
			mult++
		}
		want, err := iterMarkupsOf(t, nav, steps)
		if err != nil {
			t.Fatal(err)
		}
		n, err := ix.QueryCountSteps(cx, "d", steps)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ix.QuerySteps(cx, "d", steps)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(want) || len(res) != n {
			t.Fatalf("%s: summary count %d, scan route drained %d, Query %d", query, n, len(want), len(res))
		}
		before := ix.summaryQueries.Load()
		got, err := iterMarkupsOf(t, ix, steps)
		if err != nil {
			t.Fatal(err)
		}
		if rewrote := ix.summaryQueries.Load() > before; rewrote != p.scan {
			t.Fatalf("%s: cursor ran as one scan: %v, plan says %v", query, rewrote, p.scan)
		}
		if strings.Join(got, "\x00") != strings.Join(want, "\x00") {
			t.Fatalf("%s (one scan %v): %d matches, scan route %d\n got: %.400q\nwant: %.400q", query, p.scan, len(got), len(want), got, want)
		}
	}

	check := func(t *testing.T, rng *rand.Rand, srcs []evalSource, query string) {
		t.Helper()
		steps, err := ParseQuery(query)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		plain := !strings.Contains(query, "*") && !strings.Contains(query, "#text")
		if plain {
			summary(t, srcs, query, steps)
		}
		for _, src := range srcs {
			var want []string
			seen := map[*xmlkit.Node]bool{}
			err := xmlStep(cx, src.ref, true, steps, func(n *xmlkit.Node) error {
				if seen[n] {
					dups++
				}
				seen[n] = true
				want = append(want, src.markup(n))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(want) > 0 {
				nonEmpty++
			}
			fail := func(consumer string, got []string, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s on %s, %s: %v", query, src.name, consumer, err)
				}
				if strings.Join(got, "\x00") != strings.Join(want, "\x00") || len(got) != len(want) {
					t.Fatalf("%s on %s, %s: %d matches, reference %d\n got: %.400q\nwant: %.400q",
						query, src.name, consumer, len(got), len(want), got, want)
				}
			}

			res, err := src.s.QuerySteps(cx, "d", steps)
			fail("eager", markupsOf(t, res), err)

			if src.kind(plain) != EvalFlat {
				fail("scan over decoded records", treeMarkups(t, src.s, "d", query), nil)
			}

			n, err := src.s.QueryCountSteps(cx, "d", steps)
			if err != nil || n != len(want) {
				t.Fatalf("%s on %s, count: %d, %v; reference %d", query, src.name, n, err, len(want))
			}

			drain := func(limit int) ([]string, error) {
				it, err := src.s.QueryIter(cx, "d", steps, IterOptions{Limit: limit})
				if err != nil {
					return nil, err
				}
				defer it.Close()
				if it.kind != src.kind(plain) {
					t.Fatalf("%s on %s runs as %q, want %q", query, src.name, it.kind, src.kind(plain))
				}
				ran[it.kind]++
				var got []string
				for it.Next() {
					got = append(got, markupsOf(t, []Result{it.Result()})...)
				}
				return got, it.Err()
			}
			got, err := drain(0)
			fail("cursor", got, err)

			k := 1 + rng.Intn(len(want)+2)
			got, err = drain(k)
			if k < len(want) {
				want = want[:k]
				cut++
			}
			fail(fmt.Sprintf("cursor limit %d", k), got, err)
		}
	}

	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			text := genNestedXML(rng)
			srcs := evalSources(t, text)
			rewritten, nest, mult = 0, 0, 0
			for i := 0; i < 30; i++ {
				check(t, rng, srcs, genPath(rng, srcs[2].ref.Name, i%2 == 0))
			}
			for i, x := range []string{"A", "B", "C", "D"} {
				y := []string{"B", "C", "D", "A"}[i]
				check(t, rng, srcs, "//"+x+"/"+y)
				check(t, rng, srcs, "//"+x+"//"+y)
			}
			if rewritten == 0 || nest == 0 || mult == 0 {
				t.Errorf("summary routes: %d run as one scan, %d refused for nested contexts, %d for a match reached twice; want each", rewritten, nest, mult)
			}
		})
	}
	t.Run("fixed", func(t *testing.T) {
		rng := rand.New(rand.NewSource(99))
		docs := map[string][]evalSource{"p": evalSources(t, play), "n": evalSources(t, nested)}
		for _, q := range equivalenceQueries {
			check(t, rng, docs[docFor(q)], q)
		}
	})

	// Each source ran often enough, twice per pair (the plain and the
	// limited cursor), and the paths were not all misses.
	for _, kind := range []EvaluatorKind{EvalIndexed, EvalScan, EvalFlat} {
		if ran[kind] < 2*200 {
			t.Errorf("%s source ran %d (document, path) pairs, want at least 200", kind, ran[kind]/2)
		}
	}
	t.Logf("pairs per source: %d indexed, %d navigating, %d flat; %d non-empty answers, %d duplicate matches, %d limits that cut",
		ran[EvalIndexed]/2, ran[EvalScan]/2, ran[EvalFlat]/2, nonEmpty, dups, cut)
	if nonEmpty < 500 || dups < 100 || cut < 100 {
		t.Errorf("weak cases: %d non-empty answers, %d duplicate matches, %d limits that cut", nonEmpty, dups, cut)
	}
}

// iterMarkupsOf drains a cursor over steps on document "d" as markup.
func iterMarkupsOf(t *testing.T, s *Store, steps []Step) ([]string, error) {
	t.Helper()
	it, err := s.QueryIter(context.Background(), "d", steps, IterOptions{})
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var out []string
	for it.Next() {
		out = append(out, markupsOf(t, []Result{it.Result()})...)
	}
	return out, it.Err()
}

// markupsOf reads every result out as markup.
func markupsOf(t *testing.T, res []Result) []string {
	t.Helper()
	out := make([]string, len(res))
	for i, r := range res {
		m, err := r.Markup()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = m
	}
	return out
}
