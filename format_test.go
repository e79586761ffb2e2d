package natix

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"natix/internal/corpus"
	"natix/internal/noderep"
	"natix/internal/xmlkit"
)

// A store written by the last build before record format 3 (eee1d55,
// PR 22): `natix-cli -db play-v2.natix -pagesize 1024 -pathindex import
// play small.xml`, small.xml being the play smallPlayXML returns, then
// gzip -9. All its records are format version 2 images. To make it again,
// build natix-cli in a `git archive` copy of that commit.
const v2StoreFile = "testdata/play-v2.natix.gz"

func smallPlayXML() string {
	return xmlkit.SerializeString(corpus.GeneratePlay(corpus.SmallSpec(1), 0))
}

// openStoreCopy opens a copy of the gzipped store file under a temporary
// directory.
func openStoreCopy(t *testing.T, file string, opts Options) *DB {
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

// TestVersion2StoreFile: a store file the previous build wrote, every
// record a format version 2 image, opened by this one. Before any edit
// and after a script of node edits it answers the benchmark's ten query
// classes exactly as a store this build imports the same document into —
// through the postings of the path index it came with, through the
// record walk (opened without the index) and, converted to flat, through
// the parse — exports byte-identically and passes the invariant check;
// the edits turn its records into version 3 images one by one, and a
// Convert round trip rewrites what is left.
func TestVersion2StoreFile(t *testing.T) {
	xml := smallPlayXML()
	// What a fresh store of this build answers for a document.
	fresh := func(doc string) map[string]string {
		db, err := Open(Options{PageSize: 1024, PathIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.ImportXML("play", strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
		if v := recordVersions(t, db); v[noderep.FormatVersion] == 0 || len(v) != 1 {
			t.Fatalf("records of a fresh import by format version: %v", v)
		}
		return benchClassAnswers(t, db, "play")
	}
	same := func(when string, got, want map[string]string) {
		t.Helper()
		for class, w := range want {
			if got[class] != w {
				t.Errorf("%s: class %s answers differently from a fresh store of the same document", when, class)
			}
		}
	}
	want := fresh(xml)
	if want["export"] != xml {
		t.Fatal("a fresh import does not export its source")
	}

	for _, indexed := range []bool{true, false} {
		db := openStoreCopy(t, v2StoreFile, Options{PageSize: 1024, PathIndex: indexed})
		when := fmt.Sprintf("version 2 store, path index %v", indexed)
		total := recordVersions(t, db)
		if total[2] == 0 || len(total) != 1 {
			t.Fatalf("%s is not all version 2: %v", v2StoreFile, total)
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
			{parent: []int{0}, idx: 0, text: "The Tragedy of Record Format Three"},
			{parent: []int{2, 1}, idx: 1, name: "STAGEDIR"},
			{parent: []int{2, 1, 1}, idx: 0, text: "Enter a newer build"},
		}
		left := total[2]
		for i, e := range script {
			if err := e.apply(doc); err != nil {
				t.Fatalf("%s: edit %d: %v", when, i, err)
			}
			e.applyToModel(model)
			if err := doc.Check(); err != nil {
				t.Fatalf("%s: after edit %d: %v", when, i, err)
			}
			v := recordVersions(t, db)
			if v[2] > left || v[2]+v[noderep.FormatVersion] < total[2] || len(v) > 2 {
				t.Fatalf("%s: records by format version after edit %d: %v, %d of version 2 before it", when, i, v, left)
			}
			left = v[2]
		}
		if left == total[2] || left == 0 {
			t.Fatalf("%s: %d of %d records still version 2 after the script; want some, not all", when, left, total[2])
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

		// The third source, and the rewrite of the records no edit touched:
		// to flat and back.
		if err := db.Convert("play", true); err != nil {
			t.Fatal(err)
		}
		same(when+", flat", benchClassAnswers(t, db, "play"), wantEdited)
		if err := db.Convert("play", false); err != nil {
			t.Fatal(err)
		}
		if v := recordVersions(t, db); v[noderep.FormatVersion] == 0 || len(v) != 1 {
			t.Fatalf("%s: records by format version after a Convert round trip: %v", when, v)
		}
		same(when+", converted back", benchClassAnswers(t, db, "play"), wantEdited)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// The file is what its comment says: the store of smallPlayXML.
	var buf bytes.Buffer
	db := openStoreCopy(t, v2StoreFile, Options{PageSize: 1024})
	defer db.Close()
	if err := db.ExportXML("play", &buf); err != nil || buf.String() != xml {
		t.Fatalf("%s does not hold the small play (err %v)", v2StoreFile, err)
	}
}
