package natix

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"natix/internal/buffer"
	"natix/internal/corpus"
	"natix/internal/docstore"
	"natix/internal/xmlkit"
)

// itemsXML is the allocation guards' document: n four-node items (the
// element, its attribute, the attribute's value, its text).
func itemsXML(n int) string {
	var b strings.Builder
	b.WriteString("<root>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<item n=\"%d\">v%d</item>", i, i)
	}
	b.WriteString("</root>")
	return b.String()
}

// TestQueryZeroAlloc pins the allocation discipline of the read path:
// once a cursor is open and the touched records are warm, advancing it
// must not allocate — neither on the posting-list (indexed) route nor
// on the navigating scan. Guarded here so a future change that slips
// an allocation into the per-match path fails loudly instead of slowly.
//
// Skipped under -race: the detector instruments allocations and
// AllocsPerRun would report its bookkeeping, not ours.
func TestQueryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under -race")
	}

	src := itemsXML(400)

	open := func(t *testing.T, pathIndex bool) *DB {
		t.Helper()
		db, err := Open(Options{PageSize: 4096, PathIndex: pathIndex})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		if err := db.ImportXML("d", strings.NewReader(src)); err != nil {
			t.Fatal(err)
		}
		return db
	}

	measure := func(t *testing.T, db *DB, wantIndexed bool) float64 {
		t.Helper()
		// Warm every record the query touches (and, on the indexed
		// route, the posting blobs) with one full materializing
		// evaluation — QueryCount would not do: the indexed count never
		// resolves postings to records.
		if ms, err := db.Query("d", "//item"); err != nil || len(ms) != 400 {
			t.Fatalf("warmup: n=%d err=%v", len(ms), err)
		}
		cur, err := db.QueryIter(context.Background(), "d", "//item")
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		if got := cur.Indexed(); got != wantIndexed {
			t.Fatalf("Indexed() = %v, want %v", got, wantIndexed)
		}
		if !cur.Next() { // first Next opens the evaluation
			t.Fatal("no matches")
		}
		return testing.AllocsPerRun(200, func() {
			if !cur.Next() {
				t.Fatal("cursor exhausted mid-measurement")
			}
			_ = cur.Match()
		})
	}

	t.Run("indexed", func(t *testing.T) {
		db := open(t, true)
		if avg := measure(t, db, true); avg != 0 {
			t.Errorf("indexed cursor: %.2f allocs/op, want 0", avg)
		}
	})
	t.Run("scan", func(t *testing.T) {
		db := open(t, false)
		if avg := measure(t, db, false); avg != 0 {
			t.Errorf("scan cursor: %.2f allocs/op, want 0", avg)
		}
	})
}

// TestCursorLifetimeAllocs pins what a whole cursor costs — open, drain,
// close — on a warm store: the cursor, the compiled steps, the machine
// and its source's per-step state, none of it per match. With a
// coroutine between the evaluator and Next it was 19 allocations (1.25
// KB) on either route for //LINE over one generated play.
func TestCursorLifetimeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under -race")
	}
	src := xmlkit.SerializeString(corpus.GeneratePlay(corpus.DefaultSpec(), 0))
	for _, tc := range []struct {
		name    string
		indexed bool
		max     float64
	}{{"indexed", true, 7}, {"scan", false, 5}} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(Options{PageSize: 8192, BufferBytes: 64 << 20, PathIndex: tc.indexed})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := db.ImportXML("p", strings.NewReader(src)); err != nil {
				t.Fatal(err)
			}
			q, err := db.Prepare("//LINE")
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			lines := 0
			drain := func() {
				cur, err := q.Iter(ctx, "p")
				if err != nil {
					t.Fatal(err)
				}
				if cur.Indexed() != tc.indexed {
					t.Fatalf("Indexed() = %v", cur.Indexed())
				}
				for lines = 0; cur.Next(); lines++ {
				}
				if err := cur.Close(); err != nil {
					t.Fatal(err)
				}
			}
			drain() // warm the records, the posting lists and the pooled walk
			if lines < 1000 {
				t.Fatalf("%d lines: the play is too small to tell per-match from per-cursor", lines)
			}
			if avg := testing.AllocsPerRun(20, drain); avg > tc.max {
				t.Errorf("%s cursor over %d matches: %.0f allocs, want at most %.0f", tc.name, lines, avg, tc.max)
			}
		})
	}
}

// TestReadOutAllocs pins what reading a match out costs once the cursor
// has produced it: the read-out walks the record images appending into
// pooled scratch, so Text pays for its result string and nothing else,
// Markup for the string and at most one more, and a whole-document
// export a small constant that does not grow with the document (the
// materialize-then-serialize read-out it replaced allocated 10 and 18
// times for these four-node matches, and 17 per item for the export).
// Text of a text-only match is a substring of its record image and
// allocates nothing (it copied its string, one allocation, before the
// cached images became strings).
func TestReadOutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under -race")
	}
	open := func(t *testing.T, items int) *DB {
		t.Helper()
		db, err := Open(Options{PageSize: 4096, PathIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		if err := db.ImportXML("d", strings.NewReader(itemsXML(items))); err != nil {
			t.Fatal(err)
		}
		return db
	}

	db := open(t, 400)
	if ms, err := db.Query("d", "//item"); err != nil || len(ms) != 400 { // warm the records
		t.Fatalf("warmup: n=%d err=%v", len(ms), err)
	}
	cur, err := db.QueryIter(context.Background(), "d", "//item")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if !cur.Next() {
		t.Fatal("no matches")
	}
	m := cur.Match()
	if text, err := m.Text(); err != nil || text != "0v0" {
		t.Fatalf("Text = %q, %v", text, err)
	}
	if markup, err := m.Markup(); err != nil || markup != `<item n="0">v0</item>` {
		t.Fatalf("Markup = %q, %v", markup, err)
	}
	text := testing.AllocsPerRun(200, func() {
		if _, err := m.Text(); err != nil {
			t.Fatal(err)
		}
	})
	markup := testing.AllocsPerRun(200, func() {
		if _, err := m.Markup(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Match.Text: %.0f allocs, Match.Markup: %.0f allocs", text, markup)
	if text > 1 || markup > 2 {
		t.Errorf("Match.Text: %.0f allocs/op, want at most 1; Match.Markup: %.0f, want at most 2", text, markup)
	}

	// A text-only match: an element whose one child is its text.
	if err := db.ImportXML("lines", strings.NewReader("<root><line>first &amp; line</line><line>second</line></root>")); err != nil {
		t.Fatal(err)
	}
	lines, err := db.QueryIter(context.Background(), "lines", "//line")
	if err != nil {
		t.Fatal(err)
	}
	defer lines.Close()
	if !lines.Next() {
		t.Fatal("no line")
	}
	line := lines.Match()
	if text, err := line.Text(); err != nil || text != "first & line" {
		t.Fatalf("Text = %q, %v", text, err)
	}
	if textOnly := testing.AllocsPerRun(200, func() {
		if _, err := line.Text(); err != nil {
			t.Fatal(err)
		}
	}); textOnly != 0 {
		t.Errorf("Match.Text of a text-only match: %.0f allocs/op, want 0", textOnly)
	}

	// Text of the document's root spans every record of the document (the
	// 4000 items lie in 16 records on 4 KB pages): the records behind its
	// proxies are read without a ReadRef per proxy, so it costs its result
	// string however many records there are.
	big := open(t, 4000)
	rootText := func(db *DB, items int) float64 {
		cur, err := db.QueryIter(context.Background(), "d", "/root")
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		if !cur.Next() {
			t.Fatal("no root")
		}
		m := cur.Match()
		if text, err := m.Text(); err != nil || !strings.HasSuffix(text, fmt.Sprintf("%dv%d", items-1, items-1)) {
			t.Fatalf("Text of the root: %d bytes, %v", len(text), err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := m.Text(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := rootText(db, 400), rootText(big, 4000); small != 1 || large != 1 {
		t.Errorf("Match.Text of the root: %.0f allocs/op for 400 items, %.0f for 4000; want 1 (the string) for both", small, large)
	}

	export := func(db *DB) float64 {
		run := func() {
			if err := db.ExportXML("d", io.Discard); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm records and scratch
		return testing.AllocsPerRun(20, run)
	}
	const ceiling = 4
	small, large := export(db), export(big)
	t.Logf("ExportXML: %.0f allocs (400 items), %.0f allocs (4000 items)", small, large)
	if small != large || small > ceiling {
		t.Errorf("ExportXML: %.0f allocs for 400 items, %.0f for 4000; want equal and at most %d", small, large, ceiling)
	}
}

// TestInsertAllocs pins the allocation cost of the paper's node-by-node
// insert (§3) on a warm document: the touched record fits its page, so
// the operation is locate (reading the records it passes where they lie),
// place, splice the stored image, one windowed logged page update and the
// commit. The path descent, the child expansion, the image the splice
// works in and the update bracket's snapshot and ranges all come out of
// reused buffers; what is left is the new node and the operation's
// bookkeeping. The ceiling sits one above the measured 2 (3 while the
// writer kept a decoded tree of every record it touched, 4 while every
// edit built its operation's log label,
// "mutate:" + the document's name, as a string; 6 while every insert
// re-encoded its record and the bracket boxed its snapshot, 18 before the
// log records were framed in place, 42 when every rewrite re-walked and
// re-allocated), so an allocation slipped back into the per-node path
// fails here.
func TestInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under -race")
	}
	const ceiling = 3
	// The production bracket: checking mode snapshots and diffs whole pages.
	defer buffer.SetWindowCheck(buffer.SetWindowCheck(false))
	db, err := Open(Options{PageSize: 8192, WAL: true, PathIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// A scene-shaped parent two levels down, so the descent expands two
	// child lists before the insert expands a third.
	src := "<root>" + strings.Repeat("<act><scene/><scene/><scene/></act>", 4) + "</root>"
	if err := db.ImportXML("d", strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	doc, err := db.Document("d")
	if err != nil {
		t.Fatal(err)
	}
	insert := func() {
		if err := doc.InsertElement([]int{2, 1}, -1, "item"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 150; i++ { // warm: caches, scratch buffers, label
		insert()
	}
	if avg := testing.AllocsPerRun(100, insert); avg > ceiling {
		t.Errorf("warm InsertElement: %.1f allocs/op, ceiling %d", avg, ceiling)
	} else {
		t.Logf("warm InsertElement: %.1f allocs/op", avg)
	}
}

// TestImportAllocs pins what a bulk import allocates once the store is
// warm: the loader's slabs, event batches, element table and encode
// buffer come back from the previous import, log records are framed in
// the log buffer and pool misses load into evicted frames' images, so a
// play-sized import (file store, WAL and path index on — the benchmark's
// configuration) costs about 5 bytes of allocation per byte of XML, most
// of it the parser's strings and the index it leaves behind. The ceiling
// of 8 sits between that and the 16 the same import allocated when each
// of those buffers was made afresh per import, per record or per miss.
// The second half holds the store to its retention bound: after a
// document ten times the size, what stays parked is under
// docstore.MaxRetainedScratch.
func TestImportAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under -race")
	}
	const ceiling = 8.0
	spec := corpus.DefaultSpec()
	play := xmlkit.SerializeString(corpus.GeneratePlay(spec, 0))
	db, err := Open(Options{Path: filepath.Join(t.TempDir(), "a.natix"), PageSize: 8192, WAL: true, NoSync: true, PathIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ImportXML("warm", strings.NewReader(play)); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := db.ImportXML("measured", strings.NewReader(play)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(play))
	t.Logf("warm ImportXML of %d bytes: %.2f bytes allocated per input byte", len(play), perByte)
	if perByte > ceiling {
		t.Errorf("warm ImportXML: %.2f bytes allocated per input byte, ceiling %.0f", perByte, ceiling)
	}

	big := xmlkit.NewElement("CORPUS")
	for i := 0; i < 10; i++ {
		big.Append(corpus.GeneratePlay(spec, i))
	}
	if err := db.ImportXML("big", strings.NewReader(xmlkit.SerializeString(big))); err != nil {
		t.Fatal(err)
	}
	retained := db.store.RetainedScratch()
	t.Logf("load scratch parked after a 10x document: %d bytes (bound %d)", retained, docstore.MaxRetainedScratch)
	if retained == 0 || retained > docstore.MaxRetainedScratch/4 {
		t.Errorf("load scratch parked after a 10x document: %d bytes, want one scratch of at most %d", retained, docstore.MaxRetainedScratch/4)
	}
}
