package natix

import (
	"encoding/binary"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"natix/internal/noderep"
)

// TestWrongCountIsCorrupt flips one proxy's count in a store file — the
// page rewritten through the buffer pool, so its checksum is resealed and
// nothing but the count is wrong — and holds every reader of the record
// graph to it: Document.Check reports ErrCorruptRecord; a scrub, the pass
// natix-check runs, counts a bad record graph and quarantines the
// document; an insert whose locate enters the proxy fails with
// ErrCorruptRecord and writes nothing. A query reads no count and still
// answers from the records.
func TestWrongCountIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "count.natix")
	opts := Options{Path: path, PageSize: 1024}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetPolicy("LIST", "ITEM", Standalone); err != nil {
		t.Fatal(err)
	}
	if err := db.ImportXML("list", strings.NewReader(listXML())); err != nil {
		t.Fatal(err)
	}
	// The first proxy of the LIST's record to a scaffolding record: it
	// counts that record's ITEMs.
	info, err := db.store.Lookup("list")
	if err != nil {
		t.Fatal(err)
	}
	trees := db.store.Trees()
	img, err := trees.Records().Read(info.Root)
	if err != nil {
		t.Fatal(err)
	}
	var root, c noderep.Span
	if !noderep.RootSpan(img, &root) {
		t.Fatal("the LIST's record does not read")
	}
	first := -1 // the index of the first ITEM the proxy holds
	for p, idx := root.Start, 0; p < root.End; p, idx = c.End, idx+1 {
		if !noderep.ChildSpan(img, p, &root, &c) || c.Kind != noderep.KindProxy {
			t.Fatalf("child at %d of the LIST's record: %+v", p, c)
		}
		target, err := trees.LoadRecordForInspection(c.Target(img))
		if err != nil {
			t.Fatal(err)
		}
		if target.Root.Scaffold {
			first = idx
			break
		}
	}
	if first < 0 {
		t.Fatal("the LIST's record holds no proxy to a scaffolding record")
	}
	count := noderep.ProxyCount(img, c.End)
	var b [noderep.CountSize]byte
	binary.LittleEndian.PutUint32(b[:], uint32(count+1))
	if err := trees.Records().Patch(info.Root, noderep.CountOffset(c.End), b[:]); err != nil {
		t.Fatal(err)
	}
	trees.InvalidateCache()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	reopen := func() (*DB, *Document) {
		t.Helper()
		db, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := db.Document("list")
		if err != nil {
			t.Fatal(err)
		}
		return db, doc
	}
	db, doc := reopen()
	if err := doc.Check(); !errors.Is(err, noderep.ErrCorruptRecord) {
		t.Fatalf("Check: %v, want ErrCorruptRecord", err)
	}
	n, err := db.QueryCount("list", "//ITEM")
	if err != nil || n != 240 {
		t.Fatalf("//ITEM: %d matches (err %v), want 240", n, err)
	}
	rep, err := db.ScrubNow()
	if err != nil {
		t.Fatal(err)
	}
	if _, q := rep.Quarantined["list"]; rep.BadGraphs != 1 || !q || rep.Clean() {
		t.Fatalf("scrub: %d bad graphs, quarantined %v", rep.BadGraphs, rep.Quarantined)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, doc = reopen()
	defer db.Close()
	if err := doc.InsertElement(nil, first+1, "ITEM"); !errors.Is(err, noderep.ErrCorruptRecord) {
		t.Fatalf("insert at %d, inside the proxy's count: %v, want ErrCorruptRecord", first+1, err)
	}
	if got, _ := exportOf(t, db, "list"); got != listXML() {
		t.Fatal("the refused insert changed the document")
	}
}
