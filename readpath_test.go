package natix

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"natix/internal/core"
	"natix/internal/corpus"
	"natix/internal/noderep"
	"natix/internal/records"
	"natix/internal/xmlkit"
)

// spillCorpus builds a document big enough that, under a deliberately
// tiny buffer pool, query evaluation churns the clock.
func spillCorpus(items int) string {
	var b strings.Builder
	b.WriteString("<root>")
	for i := 0; i < items; i++ {
		fmt.Fprintf(&b, "<item n=\"%d\"><name>thing-%d</name><desc>", i, i)
		for w := 0; w < 12; w++ {
			fmt.Fprintf(&b, "word%d-%d ", i, w)
		}
		b.WriteString("</desc></item>")
	}
	b.WriteString("</root>")
	return b.String()
}

// TestQueryResultsIdenticalUnderSpill pins that clock churn is invisible
// in answers: for each evaluator route — navigating scan, path-index
// postings, flat byte stream — query results must be byte-identical
// from an 8-frame pool the document spills and from a pool that holds
// the whole document.
func TestQueryResultsIdenticalUnderSpill(t *testing.T) {
	src := spillCorpus(300)
	queries := []string{"//item", "//item/name", "//desc"}

	const spillFrames, residentFrames = 8, 1024
	run := func(t *testing.T, pathIndex, flat bool, frames int) map[string][]string {
		t.Helper()
		db, err := Open(Options{
			PageSize:    2048,
			BufferBytes: frames * 2048,
			PathIndex:   pathIndex,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		if flat {
			err = db.ImportXMLFlat("d", strings.NewReader(src))
		} else {
			err = db.ImportXML("d", strings.NewReader(src))
		}
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]string)
		// Two passes: the second starts from whatever the first left
		// resident.
		for pass := 0; pass < 2; pass++ {
			for _, q := range queries {
				ms, err := db.Query("d", q)
				if err != nil {
					t.Fatalf("query %q: %v", q, err)
				}
				got := make([]string, len(ms))
				for i, m := range ms {
					s, err := m.Markup()
					if err != nil {
						t.Fatalf("markup %q[%d]: %v", q, i, err)
					}
					got[i] = s
				}
				key := fmt.Sprintf("%s#%d", q, pass)
				out[key] = got
			}
		}
		st, err := db.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if spilled := st.Evictions > 0; spilled != (frames == spillFrames) {
			t.Fatalf("test premise: %d frames, %d evictions", frames, st.Evictions)
		}
		return out
	}

	routes := []struct {
		name            string
		pathIndex, flat bool
	}{
		{"scan", false, false},
		{"indexed", true, false},
		{"flat", false, true},
	}
	for _, r := range routes {
		t.Run(r.name, func(t *testing.T) {
			resident := run(t, r.pathIndex, r.flat, residentFrames)
			spill := run(t, r.pathIndex, r.flat, spillFrames)
			if len(resident) != len(spill) {
				t.Fatalf("result-set count differs: %d resident vs %d spilled", len(resident), len(spill))
			}
			for key, want := range resident {
				got := spill[key]
				if len(got) != len(want) {
					t.Fatalf("%s: %d matches spilled, %d resident", key, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s match %d differs under spill:\n resident: %q\n spilled:  %q", key, i, want[i], got[i])
					}
				}
			}
		})
	}
}

// benchShapes are the ten query shapes of bench/ (its classes table):
// what is asked, and how each match is read out.
var benchShapes = []struct {
	expr   string // "" = whole-document export
	markup bool
	count  bool
	limit  int
}{
	{expr: "/PLAY/ACT[3]/SCENE[2]//SPEAKER"},
	{expr: "/PLAY/ACT[1]/SCENE[1]/SPEECH[1]", markup: true},
	{expr: "//PERSONA"},
	{expr: "//LINE", limit: 10},
	{expr: "//SPEECH", count: true},
	{expr: "//SCENE/SPEECH[1]", markup: true},
	{expr: "//SPEAKER"},
	{expr: "/PLAY/ACT/SCENE/SPEECH/LINE"},
	{expr: "/PLAY/ACT/SCENE/*", markup: true},
	{},
}

// benchPass runs every shape on every document once, one client,
// consuming every match, and returns the bytes its matches read out.
func benchPass(t *testing.T, db *DB, docs []string) int64 {
	t.Helper()
	ctx := context.Background()
	var bytes int64
	for _, doc := range docs {
		for _, sh := range benchShapes {
			switch {
			case sh.expr == "":
				if err := db.ExportXML(doc, io.Discard); err != nil {
					t.Fatal(err)
				}
			case sh.count:
				n, err := db.QueryCount(doc, sh.expr)
				if err != nil {
					t.Fatal(err)
				}
				bytes += int64(n)
			default:
				var opts []QueryOption
				if sh.limit > 0 {
					opts = append(opts, WithLimit(sh.limit))
				}
				cur, err := db.QueryIter(ctx, doc, sh.expr, opts...)
				if err != nil {
					t.Fatal(err)
				}
				for cur.Next() {
					read := cur.Match().Text
					if sh.markup {
						read = cur.Match().Markup
					}
					s, err := read()
					if err != nil {
						t.Fatal(err)
					}
					bytes += int64(len(s))
				}
				if err := cur.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return bytes
}

// TestPoolReadsOnlyWhatIsAsked pins the pool's I/O to the callers'
// demand: nothing is read that no Get missed on, and nothing runs behind
// the caller. On a file store several times the pool, a cold
// single-client pass over the bench query shapes reads exactly the pages
// it misses, leaves no goroutine behind, and repeats its counts exactly
// from the same closed file; over a pool that holds the file, a second
// pass reads nothing.
func TestPoolReadsOnlyWhatIsAsked(t *testing.T) {
	const pageSize = 2048
	path := filepath.Join(t.TempDir(), "plays.natix")
	spec := corpus.SmallSpec(9) // 8 plays were 63 pages once records were format 4
	var docs []string
	db, err := Open(Options{Path: path, PageSize: pageSize, PathIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < spec.Plays; i++ {
		docs = append(docs, fmt.Sprintf("play%02d", i))
		src := xmlkit.SerializeString(corpus.GeneratePlay(spec, i))
		if err := db.ImportXML(docs[i], strings.NewReader(src)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	filePages := int(st.SpaceBytes / pageSize)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	const frames = 16
	if filePages < 4*frames {
		t.Fatalf("store is %d pages: too small to spill a %d-frame pool", filePages, frames)
	}

	cold := func(t *testing.T) (Stats, int64) {
		t.Helper()
		db, err := Open(Options{Path: path, PageSize: pageSize, PathIndex: true, BufferBytes: frames * pageSize})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		before := runtime.NumGoroutine()
		bytes := benchPass(t, db, docs)
		if after := runtime.NumGoroutine(); after != before {
			t.Errorf("%d goroutines after every cursor is closed, %d before the first query", after, before)
		}
		st, err := db.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if misses := st.LogicalReads - st.BufferHits; st.PhysReads != misses {
			t.Errorf("%d pages read, %d missed (%d logical reads, %d hits)", st.PhysReads, misses, st.LogicalReads, st.BufferHits)
		}
		if st.Evictions == 0 {
			t.Error("no evictions: the pass did not spill the pool")
		}
		return st, bytes
	}
	first, firstBytes := cold(t)
	second, secondBytes := cold(t)
	if first.PhysReads != second.PhysReads || first.Evictions != second.Evictions ||
		first.LogicalReads != second.LogicalReads || firstBytes != secondBytes {
		t.Errorf("two cold runs from the same closed file differ:\n first %d phys reads, %d evictions, %d logical reads, %d bytes out\nsecond %d phys reads, %d evictions, %d logical reads, %d bytes out",
			first.PhysReads, first.Evictions, first.LogicalReads, firstBytes,
			second.PhysReads, second.Evictions, second.LogicalReads, secondBytes)
	}

	db, err = Open(Options{Path: path, PageSize: pageSize, PathIndex: true, BufferBytes: 2 * filePages * pageSize})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	benchPass(t, db, docs)
	warm, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	benchPass(t, db, docs)
	again, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if again.PhysReads != warm.PhysReads || again.Evictions != 0 {
		t.Errorf("second pass over a pool that holds the file: %d pages read, %d evictions", again.PhysReads-warm.PhysReads, again.Evictions)
	}
}

// TestQueryPassDecodesNothing: a query reads its matches from the stored
// record images, so a pass of the benchmark's query classes over a
// reopened store — through the path index and through the record walk —
// decodes no record (core.records_decoded stays 0) while the record cache
// serves it. The other readers read the images too: after a warm pass,
// Walk, NodeCount, RecordCount, Check and ReindexDocument leave every
// image the next pass reads in the cache (it misses none), and Walk,
// NodeCount and ReindexDocument decode nothing. An edit does decode: the
// counter counts.
func TestQueryPassDecodesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.natix")
	db, err := Open(Options{Path: path, PageSize: 2048, PathIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ImportXML("play", strings.NewReader(smallPlayXML())); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, indexed := range []bool{true, false} {
		db, err := Open(Options{Path: path, PageSize: 2048, PathIndex: indexed})
		if err != nil {
			t.Fatal(err)
		}
		counter := func(name string) int64 {
			t.Helper()
			m, err := db.Metrics()
			if err != nil {
				t.Fatal(err)
			}
			n, ok := m.Counters[name]
			if !ok {
				t.Fatalf("counter %s not registered", name)
			}
			return n
		}
		benchClassAnswers(t, db, "play")
		benchClassAnswers(t, db, "play")
		if n := counter("core.records_decoded"); n != 0 {
			t.Errorf("path index %v: a query-only pass decoded %d records", indexed, n)
		}
		if counter("core.cache_hits") == 0 {
			t.Errorf("path index %v: the second pass had no record cache hits", indexed)
		}
		doc, err := db.Document("play")
		if err != nil {
			t.Fatal(err)
		}
		type reader struct {
			name    string
			decodes bool // decodes each record into memory of its own (WalkRecords)
			run     func() error
		}
		readers := []reader{
			{"Walk", false, func() error { return doc.Walk(func([]int, string, string) bool { return true }) }},
			{"NodeCount", false, func() error { _, err := doc.NodeCount(); return err }},
			{"RecordCount", true, func() error { _, err := doc.RecordCount(); return err }},
			{"Check", true, doc.Check},
		}
		if indexed {
			readers = append(readers, reader{"ReindexDocument", false, func() error { return db.ReindexDocument("play") }})
		}
		for _, r := range readers {
			before := counter("core.records_decoded")
			if err := r.run(); err != nil {
				t.Fatalf("path index %v: %s: %v", indexed, r.name, err)
			}
			if n := counter("core.records_decoded") - before; n != 0 && !r.decodes {
				t.Errorf("path index %v: %s decoded %d records", indexed, r.name, n)
			}
		}
		misses := counter("core.cache_misses")
		benchClassAnswers(t, db, "play")
		if n := counter("core.cache_misses") - misses; n != 0 {
			t.Errorf("path index %v: the pass after the readers missed the record cache %d times", indexed, n)
		}
		// An edit splices the stored image and decodes nothing; one the
		// image cannot take — an element of a name new to the record, which
		// needs a new type-table entry — decodes its record.
		decoded, spliced := counter("core.records_decoded"), counter("core.records_spliced")
		speech := pathOf(t, doc, "SPEECH")
		if err := doc.InsertElement(speech, -1, "LINE"); err != nil {
			t.Fatal(err)
		}
		if n := counter("core.records_spliced") - spliced; n != 1 || counter("core.records_decoded") != decoded {
			t.Errorf("path index %v: an insert spliced %d records and decoded %d", indexed, n, counter("core.records_decoded")-decoded)
		}
		if err := doc.InsertElement(speech, 0, fmt.Sprintf("NEW-%v", indexed)); err != nil {
			t.Fatal(err)
		}
		if counter("core.records_decoded") == decoded {
			t.Errorf("path index %v: an insert that needs a new type-table entry decoded no record", indexed)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestVersion2StoreFacadeIndexesAgree: on every node of the version 2
// store file, upgraded at Open, the facade index the decoded tree gives it — its count
// among the nodes of its record the pre-order walk reached before it, as
// the path-index builder numbers postings — resolves over the record's
// image to a node of the same kind, label and text.
func TestVersion2StoreFacadeIndexesAgree(t *testing.T) {
	db := openStoreCopy(t, v2StoreFile, Options{PageSize: 1024})
	defer db.Close()
	info, err := db.store.Lookup("play")
	if err != nil {
		t.Fatal(err)
	}
	trees := db.store.Trees()
	root, err := trees.OpenTree(info.Root).Root()
	if err != nil {
		t.Fatal(err)
	}
	next := map[records.RID]int{}
	nodes := 0
	var visit func(ref core.NodeRef)
	visit = func(ref core.NodeRef) {
		nodes++
		idx := next[ref.RID()]
		next[ref.RID()]++
		r, err := trees.RefByFacadeIndex(ref.RID(), idx)
		if err != nil {
			t.Fatalf("record %s facade %d over the image: %v", ref.RID(), idx, err)
		}
		if r.RID() != ref.RID() || r.IsLiteral() != ref.IsLiteral() || r.Label() != ref.Label() {
			t.Fatalf("record %s facade %d: the image and the decoded tree name different nodes", ref.RID(), idx)
		}
		if ref.IsLiteral() {
			got, gotErr := r.StringValue()
			want, wantErr := ref.StringValue()
			if (gotErr == nil) != (wantErr == nil) || got != want {
				t.Fatalf("record %s facade %d: the image reads %q, the decoded tree %q", ref.RID(), idx, got, want)
			}
		}
		kids, err := trees.Children(ref)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range kids {
			visit(k)
		}
	}
	visit(root)
	if v := recordVersions(t, db); v[noderep.FormatVersion] == 0 || len(v) != 1 {
		t.Fatalf("%s is not all format %d once opened: %v", v2StoreFile, noderep.FormatVersion, v)
	}
	if nodes < 500 {
		t.Fatalf("only %d nodes compared", nodes)
	}
}

// pathOf returns the path of the first node named name in document
// order.
func pathOf(t *testing.T, doc *Document, name string) []int {
	t.Helper()
	var at []int
	if err := doc.Walk(func(path []int, n, _ string) bool {
		if n == name && at == nil {
			at = append([]int(nil), path...)
		}
		return at == nil
	}); err != nil {
		t.Fatal(err)
	}
	if at == nil {
		t.Fatalf("no %s in %s", name, doc.Name())
	}
	return at
}

// TestHeldMatchStale: a //SPEECH match held past an edit of its own
// record fails Text and Markup with ErrStaleMatch, which callers test
// with errors.Is, while a held text-only LINE of the same speech still
// reads what it read.
func TestHeldMatchStale(t *testing.T) {
	db, err := Open(Options{PageSize: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ImportXML("play", strings.NewReader(smallPlayXML())); err != nil {
		t.Fatal(err)
	}
	speeches, err := db.Query("play", "//SPEECH")
	if err != nil || len(speeches) == 0 {
		t.Fatalf("//SPEECH: %d matches, %v", len(speeches), err)
	}
	lines, err := db.Query("play", "//SPEECH[1]/LINE[1]")
	if err != nil || len(lines) == 0 {
		t.Fatalf("//SPEECH[1]/LINE[1]: %d matches, %v", len(lines), err)
	}
	speech, line := speeches[0], lines[0]
	if _, err := speech.Markup(); err != nil {
		t.Fatal(err)
	}
	lineText, err := line.Text()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := db.Document("play")
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.InsertElement(pathOf(t, doc, "SPEECH"), -1, "LINE"); err != nil {
		t.Fatal(err)
	}
	if _, err := speech.Markup(); !errors.Is(err, ErrStaleMatch) {
		t.Errorf("Markup of a held //SPEECH match after an edit of its record: %v, want ErrStaleMatch", err)
	}
	if _, err := speech.Text(); !errors.Is(err, ErrStaleMatch) {
		t.Errorf("Text of a held //SPEECH match after an edit of its record: %v, want ErrStaleMatch", err)
	}
	if got, err := line.Text(); err != nil || got != lineText {
		t.Errorf("a held LINE after the edit reads %q, %v; it read %q", got, err, lineText)
	}
}

// TestHeldTextOutlivesItsRecord: the string Text returns for a text-only
// match is a slice of its record's image, and stays byte-identical after
// the record is rewritten, the record cache is cleared and the document
// is deleted; the held match itself reads the same throughout.
func TestHeldTextOutlivesItsRecord(t *testing.T) {
	db, err := Open(Options{PageSize: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ImportXML("play", strings.NewReader(smallPlayXML())); err != nil {
		t.Fatal(err)
	}
	lines, err := db.Query("play", "//LINE")
	if err != nil || len(lines) < 100 {
		t.Fatalf("//LINE: %d matches, %v", len(lines), err)
	}
	texts, want := make([]string, len(lines)), make([]string, len(lines))
	for i, m := range lines {
		if texts[i], err = m.Text(); err != nil {
			t.Fatal(err)
		}
		want[i] = strings.Clone(texts[i])
	}
	same := func(when string) {
		t.Helper()
		runtime.GC()
		for i, m := range lines {
			if texts[i] != want[i] {
				t.Fatalf("%s: held string %d reads %q, it was %q", when, i, texts[i], want[i])
			}
			if got, err := m.Text(); err != nil || got != want[i] {
				t.Fatalf("%s: held match %d reads %q, %v; it read %q", when, i, got, err, want[i])
			}
		}
	}

	doc, err := db.Document("play")
	if err != nil {
		t.Fatal(err)
	}
	at := pathOf(t, doc, "LINE")
	if err := doc.InsertText(at, 0, "rewritten: "); err != nil {
		t.Fatal(err)
	}
	if now, err := db.Query("play", "//LINE"); err != nil || len(now) == 0 {
		t.Fatal(err)
	} else if got, _ := now[0].Text(); got != "rewritten: "+want[0] {
		t.Fatalf("the first LINE reads %q after the edit", got)
	}
	same("after its record is rewritten")
	db.store.Trees().InvalidateCache()
	same("after the record cache is cleared")
	if err := db.Delete("play"); err != nil {
		t.Fatal(err)
	}
	same("after the document is deleted")
}

// TestImageCacheBytes: core.image_cache_bytes is what the record cache
// holds — every cached image's bytes and its node table's. After a cache
// clear it reads 0; after one export of a document, which reads each of
// its records once, it reads the sum over the document's records, and
// the tables take less than the images.
func TestImageCacheBytes(t *testing.T) {
	db, err := Open(Options{PageSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ImportXML("play", strings.NewReader(smallPlayXML())); err != nil {
		t.Fatal(err)
	}
	gauge := func() int64 {
		t.Helper()
		m, err := db.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		n, ok := m.Counters["core.image_cache_bytes"]
		if !ok {
			t.Fatal("core.image_cache_bytes not registered")
		}
		return n
	}
	trees := db.store.Trees()
	trees.InvalidateCache()
	if n := gauge(); n != 0 {
		t.Fatalf("after a cache clear the image cache holds %d bytes", n)
	}
	if err := db.ExportXML("play", io.Discard); err != nil {
		t.Fatal(err)
	}
	cached := gauge() // before the record walk below, which reads through the cache too
	info, err := db.store.Lookup("play")
	if err != nil {
		t.Fatal(err)
	}
	var images, tables, recs int64
	if err := trees.OpenTree(info.Root).WalkRecords(func(rid records.RID, _ *noderep.Record) error {
		buf, _, err := trees.Records().ReadString(rid)
		if err != nil {
			return err
		}
		im, err := noderep.OpenImage(buf)
		if err != nil {
			return err
		}
		images, tables, recs = images+int64(len(buf)), tables+int64(im.Footprint()-len(buf)), recs+1
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if recs < 2 {
		t.Fatalf("the document has %d records; the test wants several", recs)
	}
	if cached != images+tables || tables >= images {
		t.Fatalf("after an export the image cache holds %d bytes; the %d records' images take %d and their tables %d",
			cached, recs, images, tables)
	}
}
