package natix

import (
	"errors"
	"strings"
	"testing"

	"natix/internal/pagedev"
	"natix/internal/wal"
	"natix/internal/xmlkit"
)

// cacheModel is the document a test expects the store to hold, edited
// beside it; paths are Document paths (child indexes, texts included).
type cacheModel struct {
	t    *testing.T
	db   *DB
	name string
	root *xmlkit.Node
}

func newCacheModel(t *testing.T, db *DB, name, src string) *cacheModel {
	t.Helper()
	doc, err := xmlkit.ParseString(src, xmlkit.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return &cacheModel{t: t, db: db, name: name, root: doc.Root}
}

func (m *cacheModel) at(path []int) *xmlkit.Node {
	n := m.root
	for _, i := range path {
		n = n.Children[i]
	}
	return n
}

func (m *cacheModel) doc() *Document {
	m.t.Helper()
	d, err := m.db.Document(m.name)
	if err != nil {
		m.t.Fatal(err)
	}
	return d
}

func (m *cacheModel) insertText(path []int, idx int, text string) {
	m.t.Helper()
	if err := m.doc().InsertText(path, idx, text); err != nil {
		m.t.Fatalf("insert text at %v[%d]: %v", path, idx, err)
	}
	p := m.at(path)
	p.Children = append(p.Children, nil)
	copy(p.Children[idx+1:], p.Children[idx:])
	p.Children[idx] = xmlkit.NewText(text)
}

func (m *cacheModel) insertElement(path []int, idx int, name string) {
	m.t.Helper()
	if err := m.doc().InsertElement(path, idx, name); err != nil {
		m.t.Fatalf("insert element at %v[%d]: %v", path, idx, err)
	}
	p := m.at(path)
	p.Children = append(p.Children, nil)
	copy(p.Children[idx+1:], p.Children[idx:])
	p.Children[idx] = xmlkit.NewElement(name)
}

func (m *cacheModel) delete(path []int) {
	m.t.Helper()
	if err := m.doc().DeleteNode(path); err != nil {
		m.t.Fatalf("delete %v: %v", path, err)
	}
	p, i := m.at(path[:len(path)-1]), path[len(path)-1]
	p.Children = append(p.Children[:i], p.Children[i+1:]...)
}

// check fails unless the store reads the model back — through the record
// caches, and again from the pages alone once the caches are dropped.
func (m *cacheModel) check(what string) {
	m.t.Helper()
	want := xmlkit.SerializeString(m.root)
	if got := mustExport(m.t, m.db, m.name); got != want {
		m.t.Fatalf("%s: the store reads back a document other than the model", what)
	}
	m.db.store.Trees().InvalidateCache()
	if got := mustExport(m.t, m.db, m.name); got != want {
		m.t.Fatalf("%s: the pages hold a document other than the model", what)
	}
}

// heldMatch is a match read out once and kept.
type heldMatch struct {
	m      Match
	markup string
}

func holdFirst(t *testing.T, db *DB, doc, query string) heldMatch {
	t.Helper()
	ms, err := db.Query(doc, query)
	if err != nil || len(ms) == 0 {
		t.Fatalf("%s: %d matches, %v", query, len(ms), err)
	}
	mk, err := ms[0].Markup()
	if err != nil {
		t.Fatal(err)
	}
	return heldMatch{ms[0], mk}
}

// stale fails unless the held match's record was written since: its
// read-out reports ErrStaleMatch (core.ErrStaleRef).
func (h heldMatch) stale(t *testing.T, what string) {
	t.Helper()
	if _, err := h.m.Markup(); !errors.Is(err, ErrStaleMatch) {
		t.Fatalf("%s: a match held over a write of its record reads out with %v, want ErrStaleMatch", what, err)
	}
}

// current fails unless the held match reads out as it did.
func (h heldMatch) current(t *testing.T, what string) {
	t.Helper()
	if got, err := h.m.Markup(); err != nil || got != h.markup {
		t.Fatalf("%s: a match held over no write of its record reads out differently (%v)", what, err)
	}
}

// TestRecordCachesDropWhatIsGone: neither the writer's tree cache nor the
// readers' image cache serves a record as it was once the record is
// gone or its pages are put back — a record merged away by DeleteNode, a
// record an insert rewrote before a device fault aborted it and the log
// rolled it back, the caches dropped after restart recovery. After each,
// reads and edits see the document as the pages hold it, and a match
// held over a write of its record still reads out as stale.
func TestRecordCachesDropWhatIsGone(t *testing.T) {
	t.Run("merge-on-delete", func(t *testing.T) {
		db, err := Open(Options{PageSize: 1024, MergeOnDelete: true})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		src := smallPlayXML()
		if err := db.ImportXML("play", strings.NewReader(src)); err != nil {
			t.Fatal(err)
		}
		m := newCacheModel(t, db, "play", src)
		stats := db.store.Trees().Stats
		// Grow a speech out of its record, then trim it back: the record
		// the growth split off shrinks and folds into its parent.
		speech := pathOf(t, m.doc(), "SPEECH")
		grown := len(m.at(speech).Children)
		for splits := stats().Splits; stats().Splits == splits; {
			if len(m.at(speech).Children) > grown+200 {
				t.Fatal("200 lines never split the speech's record")
			}
			at := len(m.at(speech).Children)
			m.insertElement(speech, at, "LINE")
			m.insertText(append(speech[:len(speech):len(speech)], at), 0, "a line that makes the speech outgrow its record")
		}
		held := holdFirst(t, db, "play", "//SPEECH")
		deleted := stats().RecordsDeleted
		for len(m.at(speech).Children) > grown && stats().RecordsDeleted == deleted {
			m.delete(append(speech[:len(speech):len(speech)], len(m.at(speech).Children)-1))
		}
		if stats().RecordsDeleted == deleted {
			t.Fatal("trimming the speech removed no record")
		}
		held.stale(t, "record removed by a delete")
		m.check("after the delete")
		m.insertText(speech, 1, "written after the merge")
		m.check("after an insert behind the delete")
		held.stale(t, "record removed by a delete, after the caches were dropped")
	})

	t.Run("rolled-back-insert", func(t *testing.T) {
		db, _, fault := openIntegrityDB(t)
		src := smallPlayXML()
		if err := db.ImportXML("alpha", strings.NewReader(src)); err != nil {
			t.Fatal(err)
		}
		m := newCacheModel(t, db, "alpha", src)
		written := holdFirst(t, db, "alpha", "//SPEECH")
		m.insertText(pathOf(t, m.doc(), "SPEECH"), 0, "a write of the held speech")
		m.check("after a write")
		fault.FailGrow(1 << 30)
		text := strings.Repeat("no space for this text, ", 60)
		for i := 0; ; i++ {
			if i == 300 {
				t.Fatal("300 inserts never needed the device to grow")
			}
			// Read out right before the insert: its record is the one the
			// insert rewrites, and the rollback must put it back as it was.
			title := holdFirst(t, db, "alpha", "/PLAY/TITLE")
			err := m.doc().InsertText([]int{}, 0, text)
			if err == nil {
				m.root.Children = append([]*xmlkit.Node{xmlkit.NewText(text)}, m.root.Children...)
				continue
			}
			if !errors.Is(err, pagedev.ErrNoSpace) {
				t.Fatalf("insert on a full device: %v", err)
			}
			title.current(t, "record put back by a rollback")
			break
		}
		fault.FailGrow(0)
		written.stale(t, "rollback of a later insert")
		m.check("after the rollback")
		m.insertText([]int{}, 0, "written after the rollback")
		m.check("after an insert behind the rollback")
		if err := m.doc().Check(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("after-recovery", func(t *testing.T) {
		opts := crashOpts()
		mem, err := pagedev.NewMem(opts.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		st := wal.NewMemStorage()
		db, err := openWith(opts, mem, nil, st, false)
		if err != nil {
			t.Fatal(err)
		}
		src := smallPlayXML()
		if err := db.ImportXML("beta", strings.NewReader(src)); err != nil {
			t.Fatal(err)
		}
		m := newCacheModel(t, db, "beta", src)
		m.insertText(pathOf(t, m.doc(), "LINE"), 0, "logged, never written back ")
		// The process is gone: the pages and the log are all that is left.
		state := crashState{pages: snapshotDev(t, mem), log: st.Snapshot()}
		var clock pagedev.CrashClock
		if db, _, _, err = openCrashDB(t, opts, state, &clock); err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if rs, err := db.Recovery(); err != nil || !rs.Recovered {
			t.Fatalf("the store did not recover (%v)", err)
		}
		m.db = db
		m.check("after recovery")
		held := holdFirst(t, db, "beta", "//SPEECH")
		m.insertText(pathOf(t, m.doc(), "SPEECH"), 0, "a write of the held speech")
		db.store.Trees().InvalidateCache()
		held.stale(t, "write of its record, then the caches dropped")
		m.check("after a write behind recovery")
	})
}
