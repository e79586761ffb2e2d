package natix

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"natix/internal/corpus"
	"natix/internal/noderep"
	"natix/internal/pagedev"
	"natix/internal/records"
	"natix/internal/segment"
	"natix/internal/xmlkit"
)

// Store files older builds wrote: `natix-cli -db <file> -pagesize 1024
// -pathindex import play small.xml`, small.xml being the play
// smallPlayXML returns, then gzip -9. To make one again, build natix-cli
// in a `git archive` copy of the commit named. play-v2.natix.gz is the
// last build before record format 3 (eee1d55): all its records are format
// version 2 images; play-v3.natix.gz the last build before record format
// 4 (d09890e), all its records version 3 images. Both are segments of
// format version 2. play-v4.natix.gz is the last build before record
// format 5 (751a71e): a segment of format version 3, all its records
// format 4 images. Beside the play it holds a second document, "list"
// (listXML), imported after SetPolicy("LIST", "ITEM", Standalone), so
// that each ITEM is a record of its own and the LIST's partition records
// hold nothing but proxies: 101 of them in 931 bytes of a 1 KB page,
// which with a count on each outgrow the page. It was written through
// the package's API (Open with PageSize 1024 and PathIndex, ImportXML of
// both documents, Close), then gzip -9.
const (
	v2StoreFile = "testdata/play-v2.natix.gz"
	v3StoreFile = "testdata/play-v3.natix.gz"
	v4StoreFile = "testdata/play-v4.natix.gz"
)

func smallPlayXML() string {
	return xmlkit.SerializeString(corpus.GeneratePlay(corpus.SmallSpec(1), 0))
}

// listXML is the second document of play-v4.natix.gz: 240 ITEM elements
// of one text each under a LIST.
func listXML() string {
	var b strings.Builder
	b.WriteString("<LIST>")
	for i := 0; i < 240; i++ {
		fmt.Fprintf(&b, "<ITEM>item %d</ITEM>", i)
	}
	b.WriteString("</LIST>")
	return b.String()
}

// checkList holds the store's "list" document, when it has one, to
// listXML: it passes the invariant check and exports its source.
func checkList(t *testing.T, when string, db *DB) {
	t.Helper()
	doc, err := db.Document("list")
	if err != nil {
		return // not a store that holds it
	}
	if err := doc.Check(); err != nil {
		t.Fatalf("%s: list: %v", when, err)
	}
	if got, _ := exportOf(t, db, "list"); got != listXML() {
		t.Fatalf("%s: list exports differently", when)
	}
}

// storeFileBytes returns the bytes of a gzipped store file.
func storeFileBytes(t testing.TB, file string) []byte {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// openStoreCopy opens a copy of the gzipped store file under a temporary
// directory.
func openStoreCopy(t *testing.T, file string, opts Options) *DB {
	t.Helper()
	return openRawCopy(t, storeFileBytes(t, file), opts)
}

// openRawCopy opens a copy of the store file bytes raw under a temporary
// directory.
func openRawCopy(t *testing.T, raw []byte, opts Options) *DB {
	t.Helper()
	opts.Path = filepath.Join(t.TempDir(), "copy.natix")
	if err := os.WriteFile(opts.Path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// benchClassAnswers runs the benchmark's ten query classes (bench/
// inputs.go) over one document and returns what each answers, rendered:
// the texts or markups of the matches, the count, the first ten, the
// export.
func benchClassAnswers(t *testing.T, db *DB, name string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, cl := range []struct {
		name, expr string
		markup     bool
	}{
		{"q1", "/PLAY/ACT[3]/SCENE[2]//SPEAKER", false},
		{"q3", "/PLAY/ACT[1]/SCENE[1]/SPEECH[1]", true},
		{"persona", "//PERSONA", false},
		{"q2", "//SCENE/SPEECH[1]", true},
		{"speakers", "//SPEAKER", false},
		{"lines", "/PLAY/ACT/SCENE/SPEECH/LINE", false},
		{"wild", "/PLAY/ACT/SCENE/*", true},
	} {
		matches, err := db.Query(name, cl.expr)
		if err != nil {
			t.Fatalf("%s: %v", cl.name, err)
		}
		if len(matches) == 0 {
			t.Fatalf("%s matches nothing: the document is too small for the class", cl.name)
		}
		var b strings.Builder
		for _, m := range matches {
			s, err := m.Text()
			if cl.markup {
				s, err = m.Markup()
			}
			if err != nil {
				t.Fatalf("%s: %v", cl.name, err)
			}
			b.WriteString(s)
			b.WriteByte(0)
		}
		out[cl.name] = b.String()
	}
	n, err := db.QueryCount(name, "//SPEECH")
	if err != nil {
		t.Fatal(err)
	}
	out["count"] = fmt.Sprint(n)
	cur, err := db.QueryIter(context.Background(), name, "//LINE", WithLimit(10))
	if err != nil {
		t.Fatal(err)
	}
	var first strings.Builder
	for cur.Next() {
		s, err := cur.Match().Text()
		if err != nil {
			t.Fatal(err)
		}
		first.WriteString(s)
		first.WriteByte(0)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	out["first10"] = first.String()
	out["export"], _ = exportOf(t, db, name)
	return out
}

// TestVersion2StoreFile: a store file every record of which is a format
// version 2 image opens, upgraded (testStoreUpgrades).
func TestVersion2StoreFile(t *testing.T) {
	testStoreUpgrades(t, storeFileBytes(t, v2StoreFile))
}

// TestVersion3StoreFile: the same for a store file every record of which
// is a format version 3 image.
func TestVersion3StoreFile(t *testing.T) {
	testStoreUpgrades(t, storeFileBytes(t, v3StoreFile))
}

// TestVersion4StoreFile: the same for a store file every record of which
// is a format version 4 image, a segment of format version 3. Its proxies
// carry no count; the upgrade gives them theirs, and splits the "list"
// document's partition records that outgrow their pages with them: the
// document then exports its source and passes the invariant check.
func TestVersion4StoreFile(t *testing.T) {
	raw := storeFileBytes(t, v4StoreFile)
	testStoreUpgrades(t, raw)
	db := openRawCopy(t, raw, Options{PageSize: 1024})
	defer db.Close()
	checkList(t, "upgraded", db)
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Splits == 0 {
		t.Fatalf("the upgrade split no record: %+v", st)
	}
}

// TestVersion1Store: the same for a store every record of which is a
// format version 1 image. No store file of the build before record
// format 2 is kept (its segment format predates the write-ahead log's
// page LSNs, which no build since opens); this build's own store of the
// small play is rewritten instead: its records as version 1 images (a
// 6-byte header on every node, nothing fused), its segment header back
// to format version 2. So that the longer images fit the 1 KB pages, the
// store holds every scene, speech and persona in a record of its own.
func TestVersion1Store(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.natix")
	db, err := Open(Options{Path: path, PageSize: 1024, PathIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range [][2]string{{"ACT", "SCENE"}, {"SCENE", "SPEECH"}, {"PERSONAE", "PERSONA"}, {"PERSONAE", "PGROUP"}} {
		if err := db.SetPolicy(pc[0], pc[1], Standalone); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.ImportXML("play", strings.NewReader(smallPlayXML())); err != nil {
		t.Fatal(err)
	}
	info, err := db.store.Lookup("play")
	if err != nil {
		t.Fatal(err)
	}
	trees := db.store.Trees()
	rm := trees.Records()
	var rids []records.RID
	var images [][]byte
	if err := trees.OpenTree(info.Root).WalkRecords(func(rid records.RID, rec *noderep.Record) error {
		rids, images = append(rids, rid), append(images, version1Image(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, rid := range rids {
		if err := rm.Update(rid, images[i]); err != nil {
			t.Fatal(err)
		}
	}
	trees.InvalidateCache()
	f, err := db.pool.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	f.Latch()
	u := f.BeginUpdate()
	binary.LittleEndian.PutUint32(f.Data()[16:], 2) // the segment format version
	err = f.EndUpdate(u)
	f.Unlatch()
	f.Release()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	testStoreUpgrades(t, raw)
}

// version1Image writes rec as a format version 1 image: every node under
// a header of its own — type index, content size, the offset of its
// parent's header, 2 bytes each — and every node type in the table.
func version1Image(rec *noderep.Record) []byte {
	var table [][4]byte
	index := func(n *noderep.Node) int {
		k := [4]byte{byte(n.Kind), byte(n.Label), byte(n.Label >> 8), 0}
		if n.Scaffold {
			k[0] |= 4
		}
		if n.Kind == noderep.KindLiteral {
			k[3] = byte(n.LitType)
		}
		if i := slices.Index(table, k); i >= 0 {
			return i
		}
		table = append(table, k)
		return len(table) - 1
	}
	rec.Root.Walk(func(n *noderep.Node) bool { index(n); return true })
	out := binary.LittleEndian.AppendUint16([]byte{1, 0}, uint16(len(table)))
	for _, k := range table {
		out = append(out, k[:]...)
	}
	rootOff := len(out)
	out = binary.LittleEndian.AppendUint16(out, uint16(index(rec.Root)))
	out = append(out, make([]byte, records.RIDSize)...)
	rec.ParentRID.Put(out[rootOff+2:])
	var content func(n *noderep.Node, hdrOff int)
	content = func(n *noderep.Node, hdrOff int) {
		switch n.Kind {
		case noderep.KindLiteral:
			out = append(out, n.Payload...)
		case noderep.KindProxy:
			out = append(out, make([]byte, records.RIDSize)...)
			n.Target.Put(out[len(out)-records.RIDSize:])
		default:
			for _, c := range n.Children {
				hdr := len(out)
				out = binary.LittleEndian.AppendUint16(out, uint16(index(c)))
				out = binary.LittleEndian.AppendUint16(out, 0)
				out = binary.LittleEndian.AppendUint16(out, uint16(hdrOff))
				content(c, hdr)
				binary.LittleEndian.PutUint16(out[hdr+2:], uint16(len(out)-hdr-6))
			}
		}
	}
	content(rec.Root, rootOff)
	return out
}

// freshAnswers returns what a fresh store of this build, the document
// doc imported as "play", answers for the benchmark's query classes.
func freshAnswers(t *testing.T, doc string) map[string]string {
	t.Helper()
	db, err := Open(Options{PageSize: 1024, PathIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ImportXML("play", strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	return benchClassAnswers(t, db, "play")
}

// sameAnswers reports every query class got answers differently from
// want.
func sameAnswers(t *testing.T, when string, got, want map[string]string) {
	t.Helper()
	for class, w := range want {
		if got[class] != w {
			t.Errorf("%s: class %s answers differently from a fresh store of the same document", when, class)
		}
	}
}

// testStoreUpgrades: a store an older build wrote — raw, the bytes of its
// file: a segment of format version 2 or 3, the small play's records in
// an older record format — opened by this one, is upgraded at Open: its
// segment becomes format version 4 and every record a format 5 image.
// Then, through the postings of the path index it came with, through the
// record walk (opened without the index) and, converted to flat and back,
// through the parse, it answers the benchmark's ten query classes exactly
// as a store this build imports the same document into, exports
// byte-identically and passes the invariant check — before a script of
// node edits, and after it against a fresh import of the edited document.
// A store opened a second time is left as it was.
func testStoreUpgrades(t *testing.T, raw []byte) {
	t.Helper()
	xml := smallPlayXML()
	fresh := func(doc string) map[string]string { return freshAnswers(t, doc) }
	same := func(when string, got, want map[string]string) {
		t.Helper()
		sameAnswers(t, when, got, want)
	}
	want := fresh(xml)
	if want["export"] != xml {
		t.Fatal("a fresh import does not export its source")
	}
	if v := binary.LittleEndian.Uint32(raw[16:]); v < 2 || v >= segment.FormatVersion {
		t.Fatalf("the store is a segment of format version %d, want 2 or 3", v)
	}

	for _, indexed := range []bool{true, false} {
		db := openRawCopy(t, raw, Options{PageSize: 1024, PathIndex: indexed})
		when := fmt.Sprintf("upgraded store, path index %v", indexed)
		if v := db.store.Trees().Records().Segment().FormatVersion(); v != segment.FormatVersion {
			t.Fatalf("%s: segment format version %d", when, v)
		}
		if v := recordVersions(t, db); v[noderep.FormatVersion] == 0 || len(v) != 1 {
			t.Fatalf("%s: records by format version %v", when, v)
		}
		doc, err := db.Document("play")
		if err != nil {
			t.Fatal(err)
		}
		if err := doc.Check(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		same(when, benchClassAnswers(t, db, "play"), want)
		st, err := db.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if indexed != (st.IndexedQueries > 0) {
			t.Fatalf("%s: %d indexed queries", when, st.IndexedQueries)
		}

		// The paper's edits, on the first speech of the last act's last
		// scene and on the front matter: a line, its text (which fuses the
		// two), a second text beside it (which unfuses them), the line's
		// removal; a text out of a text-only element and back.
		model := corpus.GeneratePlay(corpus.SmallSpec(1), 0)
		act := len(model.Children) - 1
		scene := len(model.Children[act].Children) - 1
		speech := 0
		for model.Children[act].Children[scene].Children[speech].Name != "SPEECH" {
			speech++
		}
		at, line := []int{act, scene, speech}, []int{act, scene, speech, 1}
		script := []nodeEdit{
			{parent: at, idx: 1, name: "LINE"},
			{parent: line, idx: 0, text: "A line the older build never stored."},
			{parent: line, idx: 1, text: " And a second thought."},
			{del: true, parent: at, idx: 1},
			{del: true, parent: []int{0}, idx: 0},
			{parent: []int{0}, idx: 0, text: "The Tragedy of Record Format Four"},
			{parent: []int{2, 1}, idx: 1, name: "STAGEDIR"},
			{parent: []int{2, 1, 1}, idx: 0, text: "Enter a newer build"},
		}
		for i, e := range script {
			if err := e.apply(doc); err != nil {
				t.Fatalf("%s: edit %d: %v", when, i, err)
			}
			e.applyToModel(model)
			if err := doc.Check(); err != nil {
				t.Fatalf("%s: after edit %d: %v", when, i, err)
			}
		}
		edited := xmlkit.SerializeString(model)
		wantEdited := fresh(edited)
		if wantEdited["export"] != edited {
			t.Fatal("a fresh import of the edited document does not export it")
		}
		when += ", edited"
		if indexed {
			// A node edit drops the document's index; build it again.
			if err := db.ReindexDocument("play"); err != nil {
				t.Fatal(err)
			}
		}
		same(when, benchClassAnswers(t, db, "play"), wantEdited)

		// The third source: to flat and back.
		if err := db.Convert("play", true); err != nil {
			t.Fatal(err)
		}
		same(when+", flat", benchClassAnswers(t, db, "play"), wantEdited)
		if err := db.Convert("play", false); err != nil {
			t.Fatal(err)
		}
		same(when+", converted back", benchClassAnswers(t, db, "play"), wantEdited)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Opened once more, an upgraded store is not written.
	path := filepath.Join(t.TempDir(), "twice.natix")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var once []byte
	for i := 0; i < 2; i++ {
		db, err := Open(Options{Path: path, PageSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		now, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 && !bytes.Equal(now, once) {
			t.Fatal("the second Open of an upgraded store changed the file")
		}
		once = now
	}
}

// TestUpgradeCrashMatrix crashes the upgrade of the version 2, 3 and 4
// store files at every write it issues — a log append or a page write,
// whole or torn — and reopens what survived: the next Open recovers,
// finishes the upgrade, and the store answers the benchmark's query
// classes as a fresh import does, passes the invariant check, and is a
// segment of format version 4 with every record in format 5. The version
// 4 file's "list" document, whose partition records the upgrade must
// split, exports its source. Once upgraded, a store's next Open writes
// nothing at all.
func TestUpgradeCrashMatrix(t *testing.T) {
	want := freshAnswers(t, smallPlayXML())
	opts := Options{PageSize: 1024, WAL: true, PathIndex: true}
	upgraded := func(t *testing.T, when string, db *DB) {
		t.Helper()
		if v := db.store.Trees().Records().Segment().FormatVersion(); v != segment.FormatVersion {
			t.Fatalf("%s: segment format version %d", when, v)
		}
		if v := recordVersions(t, db); v[noderep.FormatVersion] == 0 || len(v) != 1 {
			t.Fatalf("%s: records by format version %v", when, v)
		}
		doc, err := db.Document("play")
		if err != nil {
			t.Fatal(err)
		}
		if err := doc.Check(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		sameAnswers(t, when, benchClassAnswers(t, db, "play"), want)
		checkList(t, when, db)
	}
	for _, file := range []string{v2StoreFile, v3StoreFile, v4StoreFile} {
		raw := storeFileBytes(t, file)
		var base crashState
		for off := 0; off < len(raw); off += opts.PageSize {
			base.pages = append(base.pages, raw[off:off+opts.PageSize])
		}
		for _, torn := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/torn=%v", filepath.Base(file), torn), func(t *testing.T) {
				for budget := int64(1); ; budget++ {
					if budget > 5000 {
						t.Fatal("the upgrade never ran to completion")
					}
					var clock pagedev.CrashClock
					clock.SetBudget(budget, torn)
					db, mem, st, err := openCrashDB(t, opts, base, &clock)
					if err == nil {
						// The whole upgrade fit under the budget.
						if clock.Crashed() {
							t.Fatalf("budget %d: crash injected but Open reported success", budget)
						}
						clock.Disarm()
						upgraded(t, "upgraded in one go", db)
						if err := db.Close(); err != nil {
							t.Fatal(err)
						}
						t.Logf("crash matrix covered %d writes", budget-1)
						// Reopened, with any write a crash: none is issued.
						state := crashState{pages: snapshotDev(t, mem), log: st.Snapshot()}
						clock.SetBudget(1, false)
						db, _, _, err := openCrashDB(t, opts, state, &clock)
						if err != nil || clock.Crashed() {
							t.Fatalf("the second Open of an upgraded store wrote (err %v)", err)
						}
						clock.Disarm()
						if err := db.Close(); err != nil {
							t.Fatal(err)
						}
						return
					}
					if !clock.Crashed() {
						t.Fatalf("budget %d: Open failed without a crash: %v", budget, err)
					}
					state := crashState{pages: snapshotDev(t, mem), log: st.Snapshot()}
					var disarmed pagedev.CrashClock
					rdb, _, _, err := openCrashDB(t, opts, state, &disarmed)
					if err != nil {
						t.Fatalf("budget %d: reopen after the crash: %v", budget, err)
					}
					upgraded(t, fmt.Sprintf("budget %d, reopened", budget), rdb)
					if err := rdb.Close(); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}
