package docstore

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"natix/internal/core"
	"natix/internal/pathindex"
	"natix/internal/xmlkit"
)

// genXML builds deterministic documents of controlled shape.
func genXML(shape string) string {
	rng := rand.New(rand.NewSource(2024))
	var b strings.Builder
	word := func() string {
		words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
		return words[rng.Intn(len(words))]
	}
	switch shape {
	case "deep":
		depth := 100
		b.WriteString("<root>")
		for i := 0; i < depth; i++ {
			fmt.Fprintf(&b, "<nest level=\"%d\">", i)
		}
		b.WriteString("bottom")
		for i := 0; i < depth; i++ {
			b.WriteString("</nest>")
		}
		b.WriteString("</root>")
	case "wide":
		b.WriteString("<root>")
		for i := 0; i < 1500; i++ {
			fmt.Fprintf(&b, "<item n=\"%d\">%s</item>", i, word())
		}
		b.WriteString("</root>")
	case "mixedText":
		b.WriteString("<doc>")
		for i := 0; i < 40; i++ {
			fmt.Fprintf(&b, "<sec>intro %s<p>%s</p>", word(), strings.Repeat(word()+" ", 400))
			b.WriteString(strings.Repeat("tail text ", 300)) // > chunk limit at small pages
			b.WriteString("<note>done</note></sec>")
		}
		b.WriteString("</doc>")
	case "attrHeavy":
		b.WriteString("<cfg>")
		for i := 0; i < 200; i++ {
			fmt.Fprintf(&b, `<entry a="%d" b="%s" c="x&amp;y" dddd="%s" e="">v</entry>`,
				i, word(), strings.Repeat("attr ", 20))
		}
		b.WriteString("</cfg>")
	}
	return b.String()
}

var shapeQueries = map[string][]string{
	"deep":      {"//nest", "/root/nest/nest", "//nest[1]", "//@level"},
	"wide":      {"//item", "/root/item[700]", "//item[2]", "//*"},
	"mixedText": {"//sec", "//p", "//note", "/doc/sec[7]/p", "//sec[3]//#text"},
	"attrHeavy": {"//entry", "//@b", "//entry[150]", "//@e"},
}

// TestBulkVsIncrementalEquivalence: a document loaded through the bulk
// path must export byte-identically to one grown incrementally, and
// all three sources (navigating scan, posting-list index, flat
// parse) must agree on every query, across shapes.
func TestBulkVsIncrementalEquivalence(t *testing.T) {
	for shape := range shapeQueries {
		t.Run(shape, func(t *testing.T) {
			src := genXML(shape)
			doc, err := xmlkit.ParseString(src, xmlkit.ParseOptions{})
			if err != nil {
				t.Fatal(err)
			}

			// Incremental reference store (scan evaluator).
			sInc, _ := newDocStore(t, 2048, core.Config{})
			if _, err := sInc.ImportTreeIncremental("d", doc.Root); err != nil {
				t.Fatal(err)
			}
			// Bulk store with path index (indexed evaluator) + flat copy.
			sBulk, _ := newDocStore(t, 2048, core.Config{})
			px, err := pathindex.Open(sBulk.Trees().Records())
			if err != nil {
				t.Fatal(err)
			}
			sBulk.EnablePathIndex(px)
			if _, err := sBulk.ImportXML("d", strings.NewReader(src)); err != nil {
				t.Fatal(err)
			}
			if _, err := sBulk.ImportFlat("flat", strings.NewReader(src)); err != nil {
				t.Fatal(err)
			}

			// Physical invariants on the bulk tree.
			tree, err := sBulk.Tree("d")
			if err != nil {
				t.Fatal(err)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("bulk invariants: %v", err)
			}

			// Byte-identical export.
			var incOut, bulkOut strings.Builder
			if err := sInc.ExportXML("d", &incOut); err != nil {
				t.Fatal(err)
			}
			if err := sBulk.ExportXML("d", &bulkOut); err != nil {
				t.Fatal(err)
			}
			if incOut.String() != bulkOut.String() {
				t.Fatalf("bulk export differs from incremental export (%d vs %d bytes)",
					bulkOut.Len(), incOut.Len())
			}

			// Evaluator agreement. Scan and indexed run over the same
			// stored form and must agree on text content exactly; the
			// flat evaluator re-parses the markup, so it is compared on
			// serialized matches (tree-mode Text includes "@attr"
			// literals and chunk boundaries by design).
			for _, q := range shapeQueries[shape] {
				scan := runQueryTexts(t, sInc, "d", q)
				indexed := runQueryTexts(t, sBulk, "d", q)
				if strings.Join(scan, "\x00") != strings.Join(indexed, "\x00") {
					t.Fatalf("query %q: indexed (%d) != scan (%d)", q, len(indexed), len(scan))
				}
				if len(scan) == 0 && !strings.Contains(q, "[") {
					t.Fatalf("query %q matched nothing — vacuous case", q)
				}
				if strings.Contains(q, "#text") || strings.Contains(q, "@") {
					// Flat text nodes are unchunked and flat attributes are
					// not nodes; both diverge from tree mode by design.
					continue
				}
				scanM := runQueryMarkup(t, sBulk, "d", q)
				flatM := runQueryMarkup(t, sBulk, "flat", q)
				if strings.Join(scanM, "\x00") != strings.Join(flatM, "\x00") {
					t.Fatalf("query %q: flat (%d) != tree (%d) serialized matches", q, len(flatM), len(scanM))
				}
			}
		})
	}
}

func runQueryTexts(t *testing.T, s *Store, doc, q string) []string {
	t.Helper()
	res, err := s.Query(doc, q)
	if err != nil {
		t.Fatalf("query %q on %s: %v", q, doc, err)
	}
	out := make([]string, len(res))
	for i, r := range res {
		txt, err := r.Text()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = txt
	}
	return out
}

func runQueryMarkup(t *testing.T, s *Store, doc, q string) []string {
	t.Helper()
	res, err := s.Query(doc, q)
	if err != nil {
		t.Fatalf("query %q on %s: %v", q, doc, err)
	}
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

// TestBulkStreamIndexMatchesRebuild: the index built during the load
// must equal what a post-hoc traversal (pathindex.Build) computes from
// the stored tree — postings, paths and counts.
func TestBulkStreamIndexMatchesRebuild(t *testing.T) {
	for shape := range shapeQueries {
		t.Run(shape, func(t *testing.T) {
			s, _ := newDocStore(t, 2048, core.Config{})
			px, err := pathindex.Open(s.Trees().Records())
			if err != nil {
				t.Fatal(err)
			}
			s.EnablePathIndex(px)
			info, err := s.ImportXML("d", strings.NewReader(genXML(shape)))
			if err != nil {
				t.Fatal(err)
			}
			h, err := px.Get("d")
			if err != nil {
				t.Fatal(err)
			}
			if h == nil {
				t.Fatal("no stream-built index stored")
			}
			want, err := pathindex.Build(s.Trees(), info.Root)
			if err != nil {
				t.Fatal(err)
			}
			if h.NumNodes() != want.NumNodes() {
				t.Fatalf("NumNodes: stream %d, rebuild %d", h.NumNodes(), want.NumNodes())
			}
			if h.NumPaths() != want.NumPaths() {
				t.Fatalf("NumPaths: stream %d, rebuild %d", h.NumPaths(), want.NumPaths())
			}
			if h.RootLabel() != want.RootLabel() {
				t.Fatalf("RootLabel: stream %d, rebuild %d", h.RootLabel(), want.RootLabel())
			}
			wantLabels := want.PostingLabels()
			gotLabels := h.PostingLabels()
			if len(gotLabels) != len(wantLabels) {
				t.Fatalf("labels: stream %d, rebuild %d", len(gotLabels), len(wantLabels))
			}
			for _, label := range wantLabels {
				got, err := h.Postings(label)
				if err != nil {
					t.Fatal(err)
				}
				exp := want.Postings(label)
				if len(got) != len(exp) {
					t.Fatalf("label %d: %d postings, want %d", label, len(got), len(exp))
				}
				for i := range exp {
					if got[i] != exp[i] {
						t.Fatalf("label %d posting %d: stream %+v, rebuild %+v", label, i, got[i], exp[i])
					}
				}
			}
			for id := pathindex.PathID(1); int(id) <= want.NumPaths(); id++ {
				if h.Path(id) != want.Path(id) {
					t.Fatalf("path %d: stream %+v, rebuild %+v", id, h.Path(id), want.Path(id))
				}
			}
		})
	}
}

// TestInsertTextSiblingOrder is the regression test for the chunked-text
// position bug: a long text run inserts several literals, and siblings
// that follow must land after all of them, not interleaved. (The old
// code advanced the insertion position by one regardless of chunk
// count.)
func TestInsertTextSiblingOrder(t *testing.T) {
	s, _ := newDocStore(t, 1024, core.Config{})
	limit := s.Trees().Records().MaxRecordSize() / 2
	long := strings.Repeat("A", limit*3+7) // 4 chunks
	src := "<doc><pre>before</pre>" + long + "<post>after</post>tail</doc>"
	doc, err := xmlkit.ParseString(src, xmlkit.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ImportTreeIncremental("d", doc.Root); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := s.ExportXML("d", &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != src {
		t.Fatalf("incremental chunked import misordered siblings:\ngot  %.120s...\nwant %.120s...", out.String(), src)
	}
	// And the bulk path agrees.
	s2, _ := newDocStore(t, 1024, core.Config{})
	if _, err := s2.ImportXML("d", strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	var out2 strings.Builder
	if err := s2.ExportXML("d", &out2); err != nil {
		t.Fatal(err)
	}
	if out2.String() != src {
		t.Fatal("bulk chunked import misordered siblings")
	}
}

// TestBulkCDATAWhitespaceParity: whitespace-only or empty CDATA
// sections adjacent to text must be dropped by the bulk path exactly
// as the DOM-based incremental path drops them (each character-data
// token decides its fate independently).
func TestBulkCDATAWhitespaceParity(t *testing.T) {
	cases := []string{
		`<a>foo<![CDATA[  ]]>bar</a>`,
		`<a>foo<![CDATA[]]>bar</a>`,
		`<a>  <![CDATA[x]]>  </a>`,
		`<a><![CDATA[ keep <raw> & this ]]>tail</a>`,
		`<a>one<![CDATA[two]]>three</a>`,
	}
	for _, src := range cases {
		doc, err := xmlkit.ParseString(src, xmlkit.ParseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sInc, _ := newDocStore(t, 2048, core.Config{})
		if _, err := sInc.ImportTreeIncremental("d", doc.Root); err != nil {
			t.Fatal(err)
		}
		sBulk, _ := newDocStore(t, 2048, core.Config{})
		if _, err := sBulk.ImportXML("d", strings.NewReader(src)); err != nil {
			t.Fatal(err)
		}
		var inc, bulk strings.Builder
		if err := sInc.ExportXML("d", &inc); err != nil {
			t.Fatal(err)
		}
		if err := sBulk.ExportXML("d", &bulk); err != nil {
			t.Fatal(err)
		}
		if inc.String() != bulk.String() {
			t.Fatalf("CDATA divergence for %q:\nincremental %q\nbulk        %q", src, inc.String(), bulk.String())
		}
		incN, err := sInc.QueryCount("d", "//a/#text")
		if err != nil {
			t.Fatal(err)
		}
		bulkN, err := sBulk.QueryCount("d", "//a/#text")
		if err != nil {
			t.Fatal(err)
		}
		if incN != bulkN {
			t.Fatalf("CDATA literal-count divergence for %q: incremental %d, bulk %d", src, incN, bulkN)
		}
	}
}

// TestBulkLongRunChunkParity: a text run longer than the parser's
// split window must produce the same literal boundaries (and so the
// same #text counts) as the incremental path, which chunks the whole
// token at once.
func TestBulkLongRunChunkParity(t *testing.T) {
	long := strings.Repeat("y", 200_000) // > several parser split windows
	src := "<a><b>" + long + "</b></a>"
	doc, err := xmlkit.ParseString(src, xmlkit.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sInc, _ := newDocStore(t, 8192, core.Config{})
	if _, err := sInc.ImportTreeIncremental("d", doc.Root); err != nil {
		t.Fatal(err)
	}
	sBulk, _ := newDocStore(t, 8192, core.Config{})
	if _, err := sBulk.ImportXML("d", strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	incN, err := sInc.QueryCount("d", "//b/#text")
	if err != nil {
		t.Fatal(err)
	}
	bulkN, err := sBulk.QueryCount("d", "//b/#text")
	if err != nil {
		t.Fatal(err)
	}
	if incN != bulkN {
		t.Fatalf("chunk-count divergence: incremental %d literals, bulk %d", incN, bulkN)
	}
	var inc, bulk strings.Builder
	if err := sInc.ExportXML("d", &inc); err != nil {
		t.Fatal(err)
	}
	if err := sBulk.ExportXML("d", &bulk); err != nil {
		t.Fatal(err)
	}
	if inc.String() != bulk.String() {
		t.Fatal("long-run export divergence")
	}
}

// TestBulkImportCancelRollsBack: a context cancelled mid-import leaves
// no catalog entry and no stranded records.
func TestBulkImportCancelRollsBack(t *testing.T) {
	s, _ := newDocStore(t, 2048, core.Config{})
	cx, cancel := context.WithCancel(context.Background())
	n := 0
	reader := &cancellingReader{src: genXML("wide"), after: 3, onChunk: func() {
		n++
		if n == 3 {
			cancel()
		}
	}}
	_, err := s.ImportXMLContext(cx, "d", reader)
	if err == nil {
		t.Fatal("cancelled import succeeded")
	}
	if _, lookupErr := s.Lookup("d"); lookupErr == nil {
		t.Fatal("cancelled import registered a document")
	}
	st := s.Trees().Stats()
	if st.RecordsCreated != st.RecordsDeleted {
		t.Fatalf("cancelled import leaked records: created %d, deleted %d",
			st.RecordsCreated, st.RecordsDeleted)
	}
	// The store remains usable.
	if _, err := s.ImportXML("d", strings.NewReader(genXML("deep"))); err != nil {
		t.Fatal(err)
	}
}

// cancellingReader hands out small chunks, calling onChunk per read.
type cancellingReader struct {
	src     string
	after   int
	onChunk func()
}

func (r *cancellingReader) Read(p []byte) (int, error) {
	if r.onChunk != nil {
		r.onChunk()
	}
	if len(r.src) == 0 {
		return 0, fmt.Errorf("EOF")
	}
	n := 512
	if n > len(r.src) {
		n = len(r.src)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, r.src[:n])
	r.src = r.src[n:]
	return n, nil
}

// TestBulkWrittenOnceEndToEnd pins the fast path's defining property at
// the docstore level: zero record rewrites during import, one record
// stored per record reachable.
func TestBulkWrittenOnceEndToEnd(t *testing.T) {
	s, _ := newDocStore(t, 2048, core.Config{})
	info, err := s.ImportXML("d", strings.NewReader(genXML("mixedText")))
	if err != nil {
		t.Fatal(err)
	}
	st := s.Trees().Stats()
	if st.RecordsRewritten != 0 {
		t.Fatalf("bulk import rewrote %d records", st.RecordsRewritten)
	}
	n, err := s.Trees().OpenTree(info.Root).RecordCount()
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) != st.RecordsCreated {
		t.Fatalf("reachable %d records, created %d", n, st.RecordsCreated)
	}
}
