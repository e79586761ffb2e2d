package docstore

import (
	"context"
	"errors"
	"strings"
	"testing"

	"natix/internal/core"
	"natix/internal/pathindex"
)

// nested exercises the corners of step semantics: repeated labels on a
// path (nested DIVs, so descendant steps see duplicate contexts),
// attributes, an empty element, and multiple siblings of one label.
const nested = `<DOC a="1"><DIV id="d1"><DIV id="d2"><A>x</A></DIV><A>y</A><B></B></DIV><A>z</A></DOC>`

// equivalenceQueries covers leading/interior descendant steps, child
// steps, predicates, misses, and the fallback name tests — the
// hand-written cases of TestEvaluatorsAgreeWithReference.
var equivalenceQueries = []string{
	"/PLAY//SPEAKER",
	"/PLAY/ACT[1]/SCENE[2]//SPEAKER",
	"//SCENE/SPEECH[1]",
	"/PLAY/ACT[1]/SCENE[1]/SPEECH[1]",
	"//SPEECH//LINE",
	"//LINE[2]",
	"//TITLE",
	"//ACT/TITLE",
	"/PLAY//NOSUCH",
	"/WRONG//SPEAKER",
	"//SPEECH[2]",
	"/PLAY/ACT/SCENE//SPEAKER",
	"/DOC//A",
	"//DIV//A",
	"//DIV/A",
	"//DIV/DIV",
	"//DIV[1]",
	"//DIV[1]//A",
	"//A[2]",
	"/DOC/DIV/A[1]",
	"//@id",
	"/DOC/@a",
	"//DIV/@id[1]",
	// Fallback shapes: "*" and "#text" are not index-answerable.
	"//DIV/*",
	"//SPEECH/*",
	"//SPEAKER/#text",
	"/PLAY/*//SPEAKER",
}

func enableIndex(t testing.TB, s *Store) *pathindex.Store {
	t.Helper()
	px, err := pathindex.Open(s.Trees().Records())
	if err != nil {
		t.Fatal(err)
	}
	s.EnablePathIndex(px)
	return px
}

// markups renders every match so result sets can be compared
// byte-for-byte.
func markups(t *testing.T, s *Store, doc, query string) []string {
	t.Helper()
	res, err := s.Query(doc, query)
	if err != nil {
		t.Fatalf("%s on %s: %v", query, doc, err)
	}
	return markupsOf(t, res)
}

func importBoth(t *testing.T, s *Store) {
	t.Helper()
	for name, text := range map[string]string{"p": play, "n": nested} {
		if _, err := s.ImportXML(name, strings.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	}
}

func docFor(q string) string {
	if strings.Contains(q, "DIV") || strings.Contains(q, "DOC") || strings.Contains(q, "@") {
		return "n"
	}
	return "p"
}

// TestIndexStatsCountRoutes runs every query on an indexed store and
// checks the route counters: every query without a "*"/"#text" test is
// answered from the index, the rest are navigated. (That both routes
// give the reference's answer is TestEvaluatorsAgreeWithReference.)
func TestIndexStatsCountRoutes(t *testing.T) {
	indexed, _ := newDocStore(t, 512, core.Config{})
	enableIndex(t, indexed)
	importBoth(t, indexed)

	var wantIndexed, wantScan int64
	for _, q := range equivalenceQueries {
		markups(t, indexed, docFor(q), q)
		if strings.Contains(q, "*") || strings.Contains(q, "#text") {
			wantScan++
		} else {
			wantIndexed++
		}
	}
	st := indexed.IndexStats()
	if st.IndexedQueries != wantIndexed || st.ScanQueries != wantScan {
		t.Errorf("IndexStats = %+v, want %d indexed / %d scan", st, wantIndexed, wantScan)
	}
	if st.Builds != 2 {
		t.Errorf("Builds = %d, want 2", st.Builds)
	}
}

// TestIndexMaintenance checks the index follows the document through
// delete, convert, and reindex.
func TestIndexMaintenance(t *testing.T) {
	s, _ := newDocStore(t, 512, core.Config{})
	px := enableIndex(t, s)

	if _, err := s.ImportXML("p", strings.NewReader(play)); err != nil {
		t.Fatal(err)
	}
	if !px.Has("p") {
		t.Fatal("import did not build an index")
	}

	// Convert to flat drops the index; converting back rebuilds it.
	if err := s.Convert("p", ModeFlat); err != nil {
		t.Fatal(err)
	}
	if px.Has("p") {
		t.Fatal("index survived conversion to flat")
	}
	if err := s.Convert("p", ModeTree); err != nil {
		t.Fatal(err)
	}
	if !px.Has("p") {
		t.Fatal("conversion back to tree did not rebuild the index")
	}
	if got := markups(t, s, "p", "/PLAY//SPEAKER"); len(got) != 5 {
		t.Fatalf("speakers after convert = %d", len(got))
	}

	if err := s.Delete("p"); err != nil {
		t.Fatal(err)
	}
	if px.Has("p") {
		t.Fatal("index survived delete")
	}

	// ReindexDocument: error cases and the mutate-then-reindex flow.
	if err := s.ReindexDocument("p"); err == nil {
		t.Fatal("reindex of a missing document succeeded")
	}
	if _, err := s.ImportFlat("f", strings.NewReader(play)); err != nil {
		t.Fatal(err)
	}
	if err := s.ReindexDocument("f"); err == nil {
		t.Fatal("reindex of a flat document succeeded")
	}
	plain, _ := newDocStore(t, 512, core.Config{})
	if _, err := plain.ImportXML("p", strings.NewReader(play)); err != nil {
		t.Fatal(err)
	}
	if err := plain.ReindexDocument("p"); err == nil {
		t.Fatal("reindex without an index store succeeded")
	}
}

// TestParseQueryEdgeCases pins the parser's error behavior on the
// malformed shapes users actually type.
func TestParseQueryEdgeCases(t *testing.T) {
	bad := []string{
		"",        // empty query
		"PLAY",    // no leading slash
		"/",       // trailing slash only
		"/PLAY/",  // trailing slash
		"/PLAY//", // trailing descendant slash
		"//",      // empty descendant step
		"/A//B/",  // interior ok, trailing empty
		"/A[1",    // unclosed predicate
		"/A[",     // unclosed predicate, empty
		"/A[]",    // empty predicate
		"/A[x]",   // non-numeric predicate
		"/A[0]",   // position below 1
		"/A[-3]",  // negative position
		"/A[1]B",  // trailing garbage after predicate
		"/A/[1]",  // predicate without a name
		"//[2]",   // descendant predicate without a name
		// Spellings Step.String never renders: accepted, they would make
		// two expressions of one query.
		"/A[+1]",                   // signed position
		"/A[01]",                   // leading zero
		"/A[99999999999999999999]", // position past an int
		"/A]",                      // ']' in a name
		"/A]B[1]",                  // ']' in a name, then a predicate
		"/A[1]]",                   // a second ']'
	}
	for _, q := range bad {
		if steps, err := ParseQuery(q); !errors.Is(err, ErrBadQuery) {
			t.Errorf("ParseQuery(%q) = %+v, %v; want ErrBadQuery", q, steps, err)
		}
	}

	good := []struct {
		q    string
		want []Step
	}{
		{"/*", []Step{{Name: "*"}}},
		{"//*", []Step{{Name: "*", Descendant: true}}},
		{"/A/*[2]", []Step{{Name: "A"}, {Name: "*", Pos: 2}}},
		{"//#text", []Step{{Name: "#text", Descendant: true}}},
		{"/A//#text[1]", []Step{{Name: "A"}, {Name: "#text", Descendant: true, Pos: 1}}},
		{"/A[12]//B", []Step{{Name: "A", Pos: 12}, {Name: "B", Descendant: true}}},
	}
	for _, g := range good {
		steps, err := ParseQuery(g.q)
		if err != nil {
			t.Errorf("ParseQuery(%q): %v", g.q, err)
			continue
		}
		if len(steps) != len(g.want) {
			t.Errorf("ParseQuery(%q) = %+v, want %+v", g.q, steps, g.want)
			continue
		}
		for i := range g.want {
			if steps[i] != g.want[i] {
				t.Errorf("ParseQuery(%q)[%d] = %+v, want %+v", g.q, i, steps[i], g.want[i])
			}
		}
	}
}

// FuzzParseQuery: ParseQuery never panics; what it rejects it rejects
// with ErrBadQuery; what it accepts is, byte for byte, the rendering of
// its own steps — so rendering and re-parsing gives the same steps — and
// the parse holds no more steps than the input has room for.
func FuzzParseQuery(f *testing.F) {
	for _, q := range equivalenceQueries {
		f.Add(q)
	}
	for _, q := range []string{ // the ten query classes of bench/inputs.go
		"/PLAY/ACT[3]/SCENE[2]//SPEAKER", "/PLAY/ACT[1]/SCENE[1]/SPEECH[1]", "//PERSONA", "//LINE", "//SPEECH",
		"//SCENE/SPEECH[1]", "//SPEAKER", "/PLAY/ACT/SCENE/SPEECH/LINE", "/PLAY/ACT/SCENE/*",
		"/A[+1]", "/A[01]", "/A]", "/A[1]]", "/A[", "//", "",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		steps, err := ParseQuery(q)
		if err != nil {
			if !errors.Is(err, ErrBadQuery) || steps != nil {
				t.Fatalf("ParseQuery(%q) = %+v, %v", q, steps, err)
			}
			return
		}
		if len(steps) == 0 || 2*len(steps) > len(q) {
			t.Fatalf("ParseQuery(%q): %d steps", q, len(steps))
		}
		var b strings.Builder
		for _, st := range steps {
			b.WriteString(st.String())
		}
		if b.String() != q {
			t.Fatalf("ParseQuery(%q) renders as %q", q, b.String())
		}
	})
}

// TestIndexedCountEnumeratesNoPosting empties the posting lists of an
// opened indexed query before counting: a count the path summary
// settles still comes out right, so it enumerated no posting, while the
// machine — a Query, or a count under a positional predicate — finds
// nothing in the emptied lists.
func TestIndexedCountEnumeratesNoPosting(t *testing.T) {
	s, _ := newDocStore(t, 512, core.Config{})
	enableIndex(t, s)
	importBoth(t, s)
	for _, query := range []string{"//SPEAKER", "/PLAY/ACT/SCENE/SPEECH/LINE", "//SPEECH//LINE", "//ACT/TITLE", "//SPEECH[1]"} {
		want := len(markups(t, s, "p", query))
		steps, err := ParseQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		drain := func(out *[]Result) int {
			q, err := s.openQuery(context.Background(), "p", steps)
			if err != nil {
				t.Fatal(err)
			}
			defer q.lock.RUnlock()
			if q.kind != EvalIndexed {
				t.Fatalf("%s runs as %s", query, q.kind)
			}
			for i := range q.frames {
				q.frames[i].postings = nil
			}
			n, err := q.drain("count", out)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
		wantCount := want
		if hasPositional(steps) {
			wantCount = 0
		}
		if n := drain(nil); n != wantCount || want == 0 {
			t.Errorf("%s: count over emptied lists %d, want %d (of %d matches)", query, n, wantCount, want)
		}
		var out []Result
		if n := drain(&out); n != 0 {
			t.Errorf("%s: Query over emptied lists found %d", query, n)
		}
	}
}
