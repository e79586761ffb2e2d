package natix

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"natix/internal/core"
	"natix/internal/dict"
	"natix/internal/noderep"
	"natix/internal/records"
)

// walkVisit is one node as Document.Walk reports it.
type walkVisit struct{ path, name, text string }

// walkAgrees holds what Document.Walk reports for the named document —
// read off the record images — to the same walk over the decoded records
// (core.Store.Children), node by node, and returns the number of nodes.
func walkAgrees(t *testing.T, db *DB, name string) int {
	t.Helper()
	doc, err := db.Document(name)
	if err != nil {
		t.Fatal(err)
	}
	var got []walkVisit
	if err := doc.Walk(func(path []int, name, text string) bool {
		got = append(got, walkVisit{fmt.Sprint(path), name, text})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	info, err := db.store.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	trees := db.store.Trees()
	root, err := trees.OpenTree(info.Root).Root()
	if err != nil {
		t.Fatal(err)
	}
	var want []walkVisit
	var visit func(ref core.NodeRef, path []int)
	visit = func(ref core.NodeRef, path []int) {
		v := walkVisit{path: fmt.Sprint(path)}
		var err error
		if ref.IsLiteral() {
			if v.text, err = ref.StringValue(); err != nil {
				v.text = fmt.Sprintf("<binary literal: %v>", err)
			}
		} else if v.name, err = db.store.Dict().Name(ref.Label()); err != nil {
			t.Fatal(err)
		}
		want = append(want, v)
		kids, err := trees.Children(ref)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range kids {
			visit(k, append(path, i))
		}
	}
	visit(root, []int{})
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("%s: node %d: Walk reports %+v, the decoded records %+v", name, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: Walk reports %d nodes, the decoded records hold %d", name, len(got), len(want))
	}
	return len(got)
}

// TestWalkMatchesDecodedReference: Document.Walk reads the record images
// and reports what the decoded records hold — every node in document
// order, with its path, name and text — under every split-matrix setting
// of the differential tests on pages of 512 to 8192 bytes, over a corpus
// play (text-only elements) with attributes on an element with content
// and on an empty one, and a long-string literal put in by hand; and over
// a store file written in record format 2.
func TestWalkMatchesDecodedReference(t *testing.T) {
	src := smallPlayXML()
	if !strings.HasSuffix(src, "</PLAY>") {
		t.Fatalf("the corpus play ends in %q", src[len(src)-20:])
	}
	src = strings.TrimSuffix(src, "</PLAY>") + `<NOTE n="1" who="a &amp; b">a note</NOTE><MARK at="end"/></PLAY>`
	mixed := func(db *DB) error {
		for _, p := range []struct {
			parent, child string
			policy        Policy
		}{{"SCENE", "SPEECH", Cluster}, {"SPEECH", "SPEAKER", Cluster}, {"ACT", "SCENE", Standalone}} {
			if err := db.SetPolicy(p.parent, p.child, p.policy); err != nil {
				return err
			}
		}
		return nil
	}
	for _, m := range []struct {
		name   string
		policy Policy
		adjust func(*DB) error
	}{{"other", Other, nil}, {"cluster", Cluster, nil}, {"standalone", Standalone, nil}, {"mixed", Other, mixed}} {
		for page := 512; page <= 8192; page *= 2 {
			t.Run(fmt.Sprintf("%s-%d", m.name, page), func(t *testing.T) {
				db, err := Open(Options{PageSize: page, DefaultPolicy: m.policy})
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				if m.adjust != nil {
					if err := m.adjust(db); err != nil {
						t.Fatal(err)
					}
				}
				if err := db.ImportXML("play", strings.NewReader(src)); err != nil {
					t.Fatal(err)
				}
				doc, err := db.Document("play")
				if err != nil {
					t.Fatal(err)
				}
				// No import writes a long-string literal: one goes in by hand,
				// behind the title. Nothing reads its blob.
				long := noderep.NewLongStringLiteral(dict.Text, records.RID{Page: 1})
				if err := doc.mutate(func() error { return doc.tree.InsertChild(core.Path{}, 1, long) }); err != nil {
					t.Fatal(err)
				}
				walkAgrees(t, db, "play")
			})
		}
	}
	t.Run("version-2", func(t *testing.T) {
		db := openStoreCopy(t, v2StoreFile, Options{PageSize: 1024})
		defer db.Close()
		if n := walkAgrees(t, db, "play"); n < 500 {
			t.Fatalf("only %d nodes compared", n)
		}
	})
}

// TestWalkBesideQueriesAndEdits runs Document.Walk on one document while
// queries read the same document and edits write another: the walks and
// the queries read the same record images out of the record cache, and
// the edits decode and write records beside them. Meant for the race
// detector; every walk reports what the first one did, and every query
// answers as a serial run does.
func TestWalkBesideQueriesAndEdits(t *testing.T) {
	db, err := Open(Options{PageSize: 2048, PathIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ImportXML("stable", strings.NewReader(stressCorpus(1)[0])); err != nil {
		t.Fatal(err)
	}
	if err := db.ImportXML("edited", strings.NewReader(othello)); err != nil {
		t.Fatal(err)
	}
	want := serialBaseline(t, db, "stable")
	stable, err := db.Document("stable")
	if err != nil {
		t.Fatal(err)
	}
	edited, err := db.Document("edited")
	if err != nil {
		t.Fatal(err)
	}
	walk := func() (string, error) {
		var b strings.Builder
		err := stable.Walk(func(path []int, name, text string) bool {
			fmt.Fprintf(&b, "%v %s %q\n", path, name, text)
			return true
		})
		return b.String(), err
	}
	first, err := walk()
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 10
	errc := make(chan error, 3)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if got, err := walk(); err != nil || got != first {
				errc <- fmt.Errorf("walk %d: %v (same as the first: %v)", i, err, got == first)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 4*rounds; i++ {
			q := stressQueries[i%len(stressQueries)]
			ms, err := db.Query("stable", q)
			if err != nil {
				errc <- fmt.Errorf("query %s: %w", q, err)
				return
			}
			var b strings.Builder
			for _, m := range ms {
				mk, err := m.Markup()
				if err != nil {
					errc <- fmt.Errorf("markup of %s: %w", q, err)
					return
				}
				b.WriteString(mk)
			}
			if b.String() != want.markup[q] {
				errc <- fmt.Errorf("query %s beside walks and edits answers differently", q)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 4*rounds; i++ {
			if err := edited.InsertText([]int{}, -1, fmt.Sprintf("edit %d", i)); err != nil {
				errc <- fmt.Errorf("edit %d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if err := edited.Check(); err != nil {
		t.Fatal(err)
	}
}
