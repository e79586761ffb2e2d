package natix

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"natix/internal/blobstore"
	"natix/internal/corpus"
	"natix/internal/xmlkit"
)

// corpusXML generates one full-scale Shakespeare-shaped play (the
// paper's corpus shape, ≈8k logical nodes).
func corpusXML() string {
	return xmlkit.SerializeString(corpus.GeneratePlay(corpus.DefaultSpec(), 0))
}

// measuredQuery runs a query once to warm one-time state (index blob
// decode on the indexed path, nothing on the scan path), then measures
// the logical reads of a second, steady-state evaluation.
func measuredQuery(t *testing.T, db *DB, doc, query string) ([]string, int64) {
	t.Helper()
	queryMarkups(t, db, doc, query)
	before, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	out := queryMarkups(t, db, doc, query)
	after, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return out, after.LogicalReads - before.LogicalReads
}

// queryMarkups runs a query and serializes every match.
func queryMarkups(t *testing.T, db *DB, doc, query string) []string {
	t.Helper()
	matches, err := db.Query(doc, query)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(matches))
	for i, m := range matches {
		s, err := m.Markup()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

// TestPathIndexSelectiveIO is the subsystem's acceptance test: on a
// Shakespeare-shaped document, a //SPEAKER-style descendant query
// through the path index must return byte-identical results to the
// scan path while touching far fewer records, and the index must
// survive a close/reopen of a file-backed store without rebuilding.
// (1 KB pages, 2 KB before record format 3: a record holds an eighth more
// nodes since, so at 2 KB this small play is 152 records where it was
// 178, while its 17 scene titles still sit in 17 of them — the "order of
// magnitude" below is a ratio of document records to matches, and at
// 1 KB it is 373 to 17.)
func TestPathIndexSelectiveIO(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plays.natix")
	xml := corpusXML()
	// The paper's query 1 plus two leading-descendant queries. For the
	// latter the scan has no prefix to prune by and must walk the whole
	// document, while the postings lead straight to the few matching
	// records — //PERSONA's 20 matches all sit in the front matter.
	queries := []string{
		"/PLAY/ACT[3]/SCENE[2]//SPEAKER",
		"//PERSONA",
		"//SCENE/TITLE",
	}
	selective := queries[1:]

	db, err := Open(Options{Path: path, PageSize: 1024, PathIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ImportXML("play", strings.NewReader(xml)); err != nil {
		t.Fatal(err)
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.PathIndexBuilds != 1 {
		t.Fatalf("PathIndexBuilds after import = %d", st.PathIndexBuilds)
	}
	first := make(map[string][]string)
	for _, q := range queries {
		first[q] = queryMarkups(t, db, "play", q)
		if len(first[q]) == 0 {
			t.Fatalf("%s matched nothing; corpus too small", q)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with the index: no rebuild, identical answers.
	db, err = Open(Options{Path: path, PageSize: 1024, PathIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	indexed := make(map[string][]string)
	indexedReads := make(map[string]int64)
	for _, q := range queries {
		indexed[q], indexedReads[q] = measuredQuery(t, db, "play", q)
	}
	st, err = db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.PathIndexBuilds != 0 {
		t.Fatalf("reopen rebuilt the index (%d builds)", st.PathIndexBuilds)
	}
	if st.IndexedQueries != int64(2*len(queries)) || st.ScanQueries != 0 {
		t.Fatalf("index not used: %+v", st)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Same store without the index: the scan path.
	db, err = Open(Options{Path: path, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	scan := make(map[string][]string)
	scanReads := make(map[string]int64)
	for _, q := range queries {
		scan[q], scanReads[q] = measuredQuery(t, db, "play", q)
	}
	st, err = db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.IndexedQueries != 0 || st.ScanQueries != int64(2*len(queries)) {
		t.Fatalf("scan path not used: %+v", st)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	for _, q := range queries {
		if strings.Join(indexed[q], "\x00") != strings.Join(scan[q], "\x00") {
			t.Errorf("%s: indexed and scan results differ:\nindexed: %q\nscan:    %q",
				q, indexed[q], scan[q])
		}
		if strings.Join(indexed[q], "\x00") != strings.Join(first[q], "\x00") {
			t.Errorf("%s: results changed across close/reopen", q)
		}
	}
	// "Without visiting non-matching subtrees": on the leading-//
	// queries the indexed evaluation must read an order of magnitude
	// less than the whole-document walk.
	for _, q := range selective {
		if indexedReads[q]*10 > scanReads[q] {
			t.Errorf("%s: indexed path read %d pages logically, scan %d — index saved too little",
				q, indexedReads[q], scanReads[q])
		}
	}
	// On the prefix-pruned query 1 the scan is already selective; the
	// index must still not read more than it.
	if q := queries[0]; indexedReads[q] > scanReads[q] {
		t.Errorf("%s: indexed path read %d pages logically, scan %d",
			q, indexedReads[q], scanReads[q])
	}
}

// TestQueryCountNoMaterialize checks the counting path: same counts as
// Query, and on an indexed document the count must not even load the
// matched records (strictly fewer logical reads than Query needs).
func TestQueryCountNoMaterialize(t *testing.T) {
	db, err := Open(Options{PathIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ImportXML("play", strings.NewReader(corpusXML())); err != nil {
		t.Fatal(err)
	}
	base, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	n, err := db.QueryCount("play", "//SPEAKER")
	if err != nil {
		t.Fatal(err)
	}
	afterCount, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	matches, err := db.Query("play", "//SPEAKER")
	if err != nil {
		t.Fatal(err)
	}
	afterQuery, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(matches) || n == 0 {
		t.Fatalf("QueryCount = %d, Query = %d", n, len(matches))
	}
	countReads := afterCount.LogicalReads - base.LogicalReads
	queryReads := afterQuery.LogicalReads - afterCount.LogicalReads
	if countReads >= queryReads {
		t.Fatalf("QueryCount read %d pages, Query read %d — counting materialized matches",
			countReads, queryReads)
	}
}

// TestMutationDropsIndex checks that editing a document through the
// Document API invalidates its path index: queries fall back to the
// scan (and see the new content) until ReindexDocument rebuilds it.
func TestMutationDropsIndex(t *testing.T) {
	db, err := Open(Options{PathIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ImportXML("d", strings.NewReader("<A><B>one</B><B>two</B></A>")); err != nil {
		t.Fatal(err)
	}
	doc, err := db.Document("d")
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.InsertElement([]int{}, -1, "B"); err != nil {
		t.Fatal(err)
	}
	n, err := db.QueryCount("d", "//B")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("//B after insert = %d, want 3 (stale index?)", n)
	}
	st, _ := db.Stats()
	if st.IndexedQueries != 0 || st.ScanQueries != 1 {
		t.Fatalf("mutated document did not fall back to scan: %+v", st)
	}
	if err := db.ReindexDocument("d"); err != nil {
		t.Fatal(err)
	}
	if n, err = db.QueryCount("d", "//B"); err != nil || n != 3 {
		t.Fatalf("//B after reindex = %d, %v", n, err)
	}
	st, _ = db.Stats()
	if st.IndexedQueries != 1 {
		t.Fatalf("reindexed document not answered from index: %+v", st)
	}
}

// TestDeleteWithoutIndexingDropsIndex checks that a session opened
// without PathIndex still drops a document's stored index on delete,
// so a later indexing session cannot answer from a dead index.
func TestDeleteWithoutIndexingDropsIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plays.natix")
	db, err := Open(Options{Path: path, PathIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ImportXML("d", strings.NewReader("<A><B>one</B><B>two</B></A>")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// A non-indexing session replaces the document.
	db, err = Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("d"); err != nil {
		t.Fatal(err)
	}
	if err := db.ImportXML("d", strings.NewReader("<A><C>three</C></A>")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// The indexing session must see the new content, not the old index.
	db, err = Open(Options{Path: path, PathIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if n, err := db.QueryCount("d", "//B"); err != nil || n != 0 {
		t.Fatalf("//B = %d, %v; want 0 (stale index survived delete)", n, err)
	}
	if n, err := db.QueryCount("d", "//C"); err != nil || n != 1 {
		t.Fatalf("//C = %d, %v; want 1", n, err)
	}
}

// TestReindexDocument covers documents imported before indexing was
// enabled: they fall back to the scan until reindexed.
func TestReindexDocument(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plays.natix")
	db, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ImportXML("othello", strings.NewReader(othello)); err != nil {
		t.Fatal(err)
	}
	if err := db.ReindexDocument("othello"); err == nil {
		t.Fatal("ReindexDocument succeeded without PathIndex")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(Options{Path: path, PathIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := queryMarkups(t, db, "othello", "/PLAY//SPEAKER")
	st, _ := db.Stats()
	if st.ScanQueries != 1 || st.IndexedQueries != 0 {
		t.Fatalf("unindexed document did not fall back: %+v", st)
	}
	if err := db.ReindexDocument("othello"); err != nil {
		t.Fatal(err)
	}
	got := queryMarkups(t, db, "othello", "/PLAY//SPEAKER")
	st, _ = db.Stats()
	if st.IndexedQueries != 1 {
		t.Fatalf("reindexed document not answered from index: %+v", st)
	}
	if strings.Join(got, "\x00") != strings.Join(want, "\x00") {
		t.Fatalf("results differ after reindex: %q vs %q", got, want)
	}
}

// iterMarkups opens a cursor over query and drains it.
func iterMarkups(t *testing.T, db *DB, doc, query string, opts ...QueryOption) []string {
	t.Helper()
	cur, err := db.QueryIter(context.Background(), doc, query, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return cursorMarkups(t, cur)
}

// TestCorruptPostingsFallBackToScan damages one label's posting list —
// junk under a valid page checksum, which only the decoder can notice —
// and holds every way into the query engine to the scan's answers:
// a damaged index costs speed, never an answer or an error.
func TestCorruptPostingsFallBackToScan(t *testing.T) {
	xml := xmlkit.SerializeString(corpus.GeneratePlay(corpus.SmallSpec(1), 0))
	damaged := []string{"//LINE", "/PLAY/ACT[2]/SCENE[1]//LINE", "//SPEECH/LINE[2]"}
	spared := "//SPEAKER"

	scan, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer scan.Close()
	if err := scan.ImportXML("play", strings.NewReader(xml)); err != nil {
		t.Fatal(err)
	}
	db, err := Open(Options{PathIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ImportXML("play", strings.NewReader(xml)); err != nil {
		t.Fatal(err)
	}

	// LINE's is the largest posting list; find its blob by that.
	px := db.store.PathIndex()
	h, err := px.Get("play")
	if err != nil {
		t.Fatal(err)
	}
	line, ok := db.store.Dict().Lookup("LINE")
	if !ok {
		t.Fatal("LINE not interned")
	}
	want, err := h.PostingSize(line)
	if err != nil {
		t.Fatal(err)
	}
	blobs := blobstore.New(db.store.Trees().Records())
	rids, err := px.BlobRIDs("play")
	if err != nil {
		t.Fatal(err)
	}
	var target blobstore.ID
	for _, rid := range rids {
		if n, err := blobs.Size(rid); err != nil {
			t.Fatal(err)
		} else if n == want {
			if !target.IsNil() {
				t.Fatalf("two index blobs of %d bytes", want)
			}
			target = rid
		}
	}
	body, err := blobs.Read(target)
	if err != nil {
		t.Fatal(err)
	}
	copy(body[4:], bytes.Repeat([]byte{0xA5}, len(body)-4)) // magic kept, the rest junk
	if id, err := blobs.Overwrite(target, body); err != nil {
		t.Fatal(err)
	} else if id != target {
		t.Fatalf("overwritten blob moved from %s to %s", target, id)
	}
	px.InvalidateCache()

	before, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range damaged {
		wantAll := queryMarkups(t, scan, "play", q)
		if len(wantAll) < 2 {
			t.Fatalf("%s matches %d nodes; corpus too small", q, len(wantAll))
		}
		if got := queryMarkups(t, db, "play", q); !slices.Equal(got, wantAll) {
			t.Errorf("%s: Query differs from the scan", q)
		}
		if n, err := db.QueryCount("play", q); err != nil || n != len(wantAll) {
			t.Errorf("%s: QueryCount = %d, %v; want %d", q, n, err, len(wantAll))
		}
		if got := iterMarkups(t, db, "play", q); !slices.Equal(got, wantAll) {
			t.Errorf("%s: drained cursor differs from the scan", q)
		}
		if got := iterMarkups(t, db, "play", q, WithLimit(1)); !slices.Equal(got, wantAll[:1]) {
			t.Errorf("%s: WithLimit(1) = %q, want %q", q, got, wantAll[:1])
		}
		ex, err := db.Explain("play", q)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Plan.Evaluator != EvalScan || !strings.Contains(ex.Plan.Reason, "unreadable (reindex to repair)") {
			t.Errorf("%s: Explain = %s: %s", q, ex.Plan.Evaluator, ex.Plan.Reason)
		}
	}
	after, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Query, QueryCount and two cursors per query ran on the scan; those
	// and Explain each found the index unreadable.
	if scans := after.ScanQueries - before.ScanQueries; scans != int64(4*len(damaged)) || after.IndexedQueries != before.IndexedQueries {
		t.Errorf("%d scan and %d indexed queries, want %d and 0", scans, after.IndexedQueries-before.IndexedQueries, 4*len(damaged))
	}
	if n := after.IndexUnreadable - before.IndexUnreadable; n != int64(5*len(damaged)) {
		t.Errorf("IndexUnreadable rose by %d, want %d", n, 5*len(damaged))
	}
	// The lists the damage spared still answer.
	if got := queryMarkups(t, db, "play", spared); !slices.Equal(got, queryMarkups(t, scan, "play", spared)) {
		t.Errorf("%s differs from the scan", spared)
	}
	if st, _ := db.Stats(); st.IndexedQueries != after.IndexedQueries+1 {
		t.Errorf("%s did not run on the index: %+v", spared, st)
	}

	if err := db.ReindexDocument("play"); err != nil {
		t.Fatal(err)
	}
	before, _ = db.Stats()
	for _, q := range damaged {
		if got := queryMarkups(t, db, "play", q); !slices.Equal(got, queryMarkups(t, scan, "play", q)) {
			t.Errorf("%s: differs from the scan after reindex", q)
		}
	}
	after, _ = db.Stats()
	if after.IndexedQueries-before.IndexedQueries != int64(len(damaged)) || after.IndexUnreadable != before.IndexUnreadable {
		t.Errorf("reindexed document not answered from the index: %+v", after)
	}
}

// TestSpacePerUserByte is the end-to-end space guard, an exact count of
// bytes: five full-scale plays bulk-loaded into a file store opened the
// way bench/ opens its stores take at most 1.30 file bytes per byte of
// XML, and the path index no more than 0.09 of that (at 22 fixed bytes
// a posting the same store took 1.63, 0.42 of it index).
func TestSpacePerUserByte(t *testing.T) {
	spec := corpus.DefaultSpec()
	plays := make([]string, 5)
	var xmlBytes int64
	for i := range plays {
		plays[i] = xmlkit.SerializeString(corpus.GeneratePlay(spec, i))
		xmlBytes += int64(len(plays[i]))
	}
	perUserByte := func(index bool) float64 {
		path := filepath.Join(t.TempDir(), "space.natix")
		db, err := Open(Options{Path: path, PageSize: 8192, PathIndex: index, WAL: true, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		for i, xml := range plays {
			if err := db.ImportXML(fmt.Sprintf("play%d", i), strings.NewReader(xml)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return float64(fi.Size()) / float64(xmlBytes)
	}
	with, without := perUserByte(true), perUserByte(false)
	t.Logf("%d bytes of XML: %.4f file bytes per user byte, %.4f without the index", xmlBytes, with, without)
	if with > 1.30 {
		t.Errorf("space per user byte %.4f, want ≤ 1.30", with)
	}
	if with > without+0.09 {
		t.Errorf("the index costs %.4f bytes per user byte, want ≤ 0.09", with-without)
	}
}
