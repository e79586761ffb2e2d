package docstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"natix/internal/buffer"
	"natix/internal/core"
	"natix/internal/corpus"
	"natix/internal/dict"
	"natix/internal/noderep"
	"natix/internal/pagedev"
	"natix/internal/pathindex"
	"natix/internal/records"
	"natix/internal/segment"
	"natix/internal/xmlkit"
)

// TestReadOutScratchBounded: a Markup of a whole play outgrows what a
// pooled read-out scratch may keep, so it is not parked, and the scratch
// the pool hands out next is within the bounds.
func TestReadOutScratchBounded(t *testing.T) {
	s, _ := newDocStore(t, 8192, core.Config{CacheRecords: 4096})
	if _, err := s.ImportXML("play", strings.NewReader(xmlkit.SerializeString(corpus.GeneratePlay(corpus.DefaultSpec(), 0)))); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query("play", "/PLAY")
	if err != nil || len(res) != 1 {
		t.Fatalf("/PLAY: %d matches, %v", len(res), err)
	}
	markup, err := res[0].Markup()
	if err != nil {
		t.Fatal(err)
	}
	if len(markup) <= maxReadOutBytes {
		t.Fatalf("the play's markup has %d bytes, not past the %d a scratch may keep", len(markup), maxReadOutBytes)
	}
	ro := s.getReadOut(nil)
	defer s.putReadOut(ro)
	if cap(ro.out) > maxReadOutBytes || cap(ro.stack) > maxReadOutRefs || cap(ro.val) > maxReadOutVal {
		t.Fatalf("pooled scratch after a whole-play Markup: out %d, stack %d, val %d; bounds %d, %d, %d",
			cap(ro.out), cap(ro.stack), cap(ro.val), maxReadOutBytes, maxReadOutRefs, maxReadOutVal)
	}
}

// errAbandon makes Mutate roll an operation back.
var errAbandon = errors.New("abandoned on purpose")

// TestReadOutAfterEditsAllRoutes runs a seeded script of node edits over
// a logged store whose record cache holds the images queries read —
// inserts spliced into their record, inserts that split it and move
// proxies to new parents, deletes, and an operation rolled back — and
// after every step reads the document out three ways: over the record
// images the live store caches, over its decoded records (the tree
// route), and over the images of a store freshly reopened from the
// device. Text, Markup and ExportXML must agree byte for byte, so no
// write leaves a stale image behind in the cache. The script runs once
// as is and once with MergeOnDelete, which folds shrunken records into
// their parents.
//
// Results read before a step are read again after it. A text-only LINE
// is a snapshot and reads as before. Any other match either fails with
// core.ErrStaleRef or reads exactly what the same node reads when
// queried afresh, so a Result whose record changed under it never reads
// through a proxy into a record deleted, merged or reused since.
func TestReadOutAfterEditsAllRoutes(t *testing.T) {
	for _, merge := range []bool{false, true} {
		t.Run(fmt.Sprintf("merge=%v", merge), func(t *testing.T) {
			readOutAfterEdits(t, merge)
		})
	}
}

func readOutAfterEdits(t *testing.T, merge bool) {
	s, pool, dev := walStoreWith(t, core.Config{CacheRecords: 4096, MergeOnDelete: merge})
	if _, err := s.ImportXML("d", strings.NewReader(xmlkit.SerializeString(corpus.GeneratePlay(corpus.SmallSpec(1), 0)))); err != nil {
		t.Fatal(err)
	}
	line, ok := s.dict.Lookup("LINE")
	if !ok {
		t.Fatal("no LINE label")
	}
	speech, _ := s.dict.Lookup("SPEECH")
	tree, err := s.Tree("d")
	if err != nil {
		t.Fatal(err)
	}
	edit := func(fn func() error) error {
		return s.Mutate("d", func() error {
			if err := s.PrepareMutation("d"); err != nil {
				return err
			}
			if err := fn(); err != nil {
				return err
			}
			return s.FinishBulk("d", tree)
		})
	}
	insertLine := func(at core.Path, idx int, text string) error {
		return edit(func() error {
			if err := tree.InsertChild(at, idx, noderep.NewAggregate(line)); err != nil {
				return err
			}
			if idx < 0 {
				ref, err := decodedAt(s, tree, at)
				if err != nil {
					return err
				}
				kids, err := s.trees.Children(ref)
				if err != nil {
					return err
				}
				idx = len(kids) - 1
			}
			return tree.InsertChild(append(at[:len(at):len(at)], idx), 0, noderep.NewTextLiteral(text))
		})
	}

	rng := rand.New(rand.NewSource(27))
	var held []heldRead
	var grown core.Path // the speech grown last, while no speech is deleted
	stale, fresh, merged := 0, 0, int64(0)
	before := s.trees.Stats()
	for step := 0; step < 60; step++ {
		speeches := pathsOf(t, s, "d", speech)
		at := speeches[rng.Intn(len(speeches))]
		var what string
		switch {
		case step == 25:
			what = "rolled-back insert"
			err := edit(func() error {
				if err := tree.InsertChild(at, 1, noderep.NewAggregate(line)); err != nil {
					return err
				}
				if err := tree.Delete(append(at[:len(at):len(at)], 2)); err != nil {
					return err
				}
				return errAbandon
			})
			if !errors.Is(err, errAbandon) {
				t.Fatalf("rolled-back step: %v", err)
			}
		case step%15 == 14:
			what = "delete a speech"
			err = edit(func() error { return tree.Delete(at) })
			grown = nil
		case step%5 == 4:
			lines := pathsOf(t, s, "d", line)
			what = "delete a line"
			err = edit(func() error { return tree.Delete(lines[rng.Intn(len(lines))]) })
		case step%5 == 2 && grown != nil:
			// Back down to its speaker and first line: the record split
			// off by the growth shrinks, and with MergeOnDelete folds
			// into its parent.
			what = "trim a grown speech"
			n := s.trees.Stats().RecordsDeleted
			for err == nil {
				var ref core.NodeRef
				var kids []core.NodeRef
				if ref, err = decodedAt(s, tree, grown); err == nil {
					kids, err = s.trees.Children(ref)
				}
				if err != nil || len(kids) <= 2 {
					break
				}
				err = edit(func() error { return tree.Delete(append(grown[:len(grown):len(grown)], len(kids)-1)) })
			}
			merged += s.trees.Stats().RecordsDeleted - n
			grown = nil
		case step%3 == 0:
			// Long lines into one speech until its record splits.
			what = "grow a speech"
			for i := 0; i < 6 && err == nil; i++ {
				err = insertLine(at, -1, strings.Repeat(fmt.Sprintf("line %d of step %d, & <more> ", i, step), 4))
			}
			grown = at
		default:
			what = "insert a line"
			err = insertLine(at, 1, fmt.Sprintf("step %d says \"%s\"", step, strings.Repeat("x", rng.Intn(40))))
		}
		if err != nil && step != 25 {
			t.Fatalf("step %d (%s): %v", step, what, err)
		}
		if step%10 == 9 {
			if err := s.ReindexDocument("d"); err != nil {
				t.Fatal(err)
			}
		}
		when := fmt.Sprintf("step %d (%s)", step, what)
		s1, f1 := heldReadsHold(t, s, held, when)
		stale, fresh = stale+s1, fresh+f1
		held = sameOnAllRoutes(t, s, pool, dev, when)
	}
	st := s.trees.Stats()
	spliced, splits := st.RecordsSpliced-before.RecordsSpliced, st.Splits-before.Splits
	patches, deleted := st.ParentPatches-before.ParentPatches, st.RecordsDeleted-before.RecordsDeleted
	t.Logf("%d splices, %d splits, %d parent patches, %d records deleted (%d by trims); held reads: %d stale, %d current", spliced, splits, patches, deleted, merged, stale, fresh)
	if merge && merged == 0 {
		t.Fatal("no trimmed record was merged into its parent")
	}
	if spliced == 0 || splits == 0 || patches == 0 || deleted == 0 {
		t.Fatalf("the script missed an edit kind: %d splices, %d splits, %d parent patches, %d records deleted", spliced, splits, patches, deleted)
	}
	if stale == 0 || fresh == 0 {
		t.Fatalf("held reads: %d stale, %d current; the script must produce both", stale, fresh)
	}
}

// heldRead is a Result read before an edit step: the query that found
// it, and for a text-only match the text it read.
type heldRead struct {
	r    Result
	expr string
	text string
}

// heldReadsHold reads every held Result again after an edit step: a
// text-only one must read its old text, and any other one must fail with
// core.ErrStaleRef or read what a fresh query's match at the same place
// reads. It returns how many of the others were stale and how many read.
func heldReadsHold(t *testing.T, s *Store, held []heldRead, when string) (stale, current int) {
	t.Helper()
	now := map[string][]Result{}
	for _, h := range held {
		if _, ok := h.r.Ref.TextOnly(); ok {
			if got, err := h.r.Text(); err != nil || got != h.text {
				t.Fatalf("%s: a line read before the step reads %q, %v; it read %q", when, got, err, h.text)
			}
			continue
		}
		got, err := h.r.Markup()
		if err != nil {
			if !errors.Is(err, core.ErrStaleRef) {
				t.Fatalf("%s: a %s match read before the step: %v", when, h.expr, err)
			}
			stale++
			continue
		}
		if now[h.expr] == nil {
			if now[h.expr], err = s.Query("d", h.expr); err != nil {
				t.Fatal(err)
			}
		}
		found := false
		for _, f := range now[h.expr] {
			if reflect.DeepEqual(f.Ref, h.r.Ref) {
				want, err := f.Markup()
				if err != nil || got != want {
					t.Fatalf("%s: a %s match read before the step reads\n%.300q\nqueried afresh\n%.300q (%v)", when, h.expr, got, want, err)
				}
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%s: a %s match read before the step reads %.300q, but no fresh match lies where it does", when, h.expr, got)
		}
		current++
	}
	return stale, current
}

// sameOnAllRoutes reads the document "d" of s out over the images s
// caches, over its decoded records and over a store reopened from the
// device, and fails unless the three agree. It returns a sample of the
// matches it read over the images.
func sameOnAllRoutes(t *testing.T, s *Store, pool *buffer.Pool, dev *pagedev.Mem, when string) []heldRead {
	t.Helper()
	reopened := reopenStore(t, pool, dev, core.Config{CacheRecords: 4096})
	var held []heldRead
	for _, q := range []struct {
		expr   string
		markup bool
	}{{"/PLAY", true}, {"//SPEECH", true}, {"//LINE", false}, {"//SCENE", false}} {
		tree := treeMarkups(t, s, "d", q.expr)
		if !q.markup {
			steps, _ := ParseQuery(q.expr)
			refs, err := treeQuery(s, "d", steps)
			if err != nil {
				t.Fatal(err)
			}
			for i, ref := range refs {
				if tree[i], err = refTextContent(s, ref); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, route := range []struct {
			name string
			s    *Store
		}{{"cached images", s}, {"reopened store", reopened}} {
			res, err := route.s.Query("d", q.expr)
			if err != nil {
				t.Fatalf("%s: %s over the %s: %v", when, q.expr, route.name, err)
			}
			if len(res) != len(tree) {
				t.Fatalf("%s: %s over the %s: %d matches, %d over decoded records", when, q.expr, route.name, len(res), len(tree))
			}
			for i, r := range res {
				read := r.Text
				if q.markup {
					read = r.Markup
				}
				got, err := read()
				if err != nil || got != tree[i] {
					t.Fatalf("%s: %s match %d over the %s reads\n%.300q (%v)\nover decoded records\n%.300q", when, q.expr, i, route.name, got, err, tree[i])
				}
				if route.s == s && q.expr != "/PLAY" && i%7 == 0 {
					held = append(held, heldRead{r: r, expr: q.expr, text: got})
				}
			}
		}
	}
	want, err := refMarkup(s, mustRootRef(t, s, "d"))
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range []*Store{s, reopened} {
		var got bytes.Buffer
		if err := route.ExportXML("d", &got); err != nil || got.String() != want {
			t.Fatalf("%s: ExportXML differs from the decoded records' markup (%v)", when, err)
		}
	}
	if n := reopened.trees.Stats().RecordsDecoded; n != 0 {
		t.Fatalf("%s: reading the reopened store decoded %d records", when, n)
	}
	return held
}

// reopenStore flushes pool and opens the store on dev again, over a pool,
// dictionary, record cache and catalog of its own.
func reopenStore(t *testing.T, pool *buffer.Pool, dev *pagedev.Mem, cfg core.Config) *Store {
	t.Helper()
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	fresh, err := buffer.New(dev, 256)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := segment.Open(fresh)
	if err != nil {
		t.Fatal(err)
	}
	rm := records.New(seg)
	d, err := dict.Open(rm)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(core.New(rm, cfg), d)
	if err != nil {
		t.Fatal(err)
	}
	px, err := pathindex.Open(rm)
	if err != nil {
		t.Fatal(err)
	}
	s.EnablePathIndex(px)
	return s
}

// pathsOf returns the logical paths of the elements labelled label in
// the named document, in document order, found over its decoded records.
func pathsOf(t *testing.T, s *Store, name string, label dict.LabelID) []core.Path {
	t.Helper()
	var out []core.Path
	var visit func(ref core.NodeRef, at core.Path)
	visit = func(ref core.NodeRef, at core.Path) {
		if !ref.IsLiteral() && ref.Label() == label {
			out = append(out, at)
		}
		kids, err := s.trees.Children(ref)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range kids {
			visit(k, append(at[:len(at):len(at)], i))
		}
	}
	visit(mustRootRef(t, s, name), core.Path{})
	return out
}

// decodedAt resolves a logical path over the decoded records (Tree.Root,
// Store.Children).
func decodedAt(s *Store, tree *core.Tree, path core.Path) (core.NodeRef, error) {
	ref, err := tree.Root()
	for _, i := range path {
		if err != nil {
			break
		}
		var kids []core.NodeRef
		if kids, err = s.trees.Children(ref); err == nil && (i < 0 || i >= len(kids)) {
			err = fmt.Errorf("no child %d of %d", i, len(kids))
		}
		if err == nil {
			ref = kids[i]
		}
	}
	return ref, err
}
