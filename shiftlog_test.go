package natix

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"strings"
	"testing"

	"natix/internal/corpus"
	"natix/internal/docstore"
	"natix/internal/noderep"
	"natix/internal/pagedev"
	"natix/internal/records"
	"natix/internal/wal"
)

// editSession is one open session of node edits over a store that held
// the empty document, checkpointed, when the session began: a 16-page
// pool, so dirty pages are stolen all along and the device holds every
// mixture of old and new pages, the log everything.
type editSession struct {
	opts Options
	mem  *pagedev.Mem
	log  wal.Storage
	db   *DB
	doc  *Document
}

// shiftLogScript is the incremental workload (BFS inserts, every ninth
// node deleted and re-inserted, whole speeches deleted) over the first
// 1 640 nodes of the seed-1999 play: 2 007 edits.
func shiftLogScript(t testing.TB) (rootName string, script []nodeEdit) {
	spec := corpus.DefaultSpec()
	spec.Seed = 1999
	rootName, script = nodeEditScriptOf(corpus.GeneratePlay(spec, 0), 1640)
	if len(script) < 2000 {
		t.Fatalf("script has %d edits", len(script))
	}
	return rootName, script
}

// openEditSession builds the checkpointed store and opens the session;
// wrap, if given, stands between the store and its log.
func openEditSession(t testing.TB, rootName string, wrap func(*wal.MemStorage) wal.Storage) (*editSession, *wal.MemStorage) {
	s := &editSession{opts: crashOpts()}
	s.opts.PathIndex = false
	s.opts.walBufLimit = 0
	var err error
	if s.mem, err = pagedev.NewMem(s.opts.PageSize); err != nil {
		t.Fatal(err)
	}
	st := wal.NewMemStorage()
	s.log = st
	if wrap != nil {
		s.log = wrap(st)
	}
	var clock pagedev.CrashClock // never armed: a crash is a copy
	db, err := openWith(s.opts, pagedev.NewFault(s.mem, &clock), nil, s.log, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ImportXML("play", strings.NewReader("<"+rootName+"/>")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if s.db, err = openWith(s.opts, pagedev.NewFault(s.mem, &clock), nil, s.log, true); err != nil {
		t.Fatal(err)
	}
	if s.doc, err = s.db.Document("play"); err != nil {
		t.Fatal(err)
	}
	return s, st
}

func (s *editSession) apply(t testing.TB, script []nodeEdit) {
	for g, e := range script {
		if err := e.apply(s.doc); err != nil {
			t.Fatalf("edit %d: %v", g, err)
		}
	}
}

// recordTypes counts the records of a log by type name.
func recordTypes(t testing.TB, log []byte) map[string]int {
	byType := map[string]int{}
	if _, _, err := wal.Scan(wal.NewMemStorageFrom(log), func(r wal.Record) error {
		byType[wal.TypeName(r.Type)]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return byType
}

// sameBody compares two images of a page but for bytes 4..16, the
// checksum and the LSN stamp.
func sameBody(a, b []byte) bool {
	return bytes.Equal(a[:4], b[:4]) && bytes.Equal(a[16:], b[16:])
}

// recordVersions counts the records of db's tree documents by the format
// version of their stored images.
func recordVersions(t testing.TB, db *DB) map[int]int {
	t.Helper()
	trees := db.store.Trees()
	versions := map[int]int{}
	var walk func(rid records.RID)
	walk = func(rid records.RID) {
		img, err := trees.Records().Read(rid)
		if err != nil {
			t.Fatalf("record %s: %v", rid, err)
		}
		versions[int(img[0])]++
		rec, err := trees.LoadRecordForInspection(rid)
		if err != nil {
			t.Fatalf("record %s: %v", rid, err)
		}
		rec.Root.Walk(func(n *noderep.Node) bool {
			if n.Kind == noderep.KindProxy {
				walk(n.Target)
			}
			return true
		})
	}
	for _, info := range db.store.Documents() {
		if info.Mode == docstore.ModeTree {
			walk(info.Root)
		}
	}
	return versions
}

// recoverCrash runs restart recovery over a crash copy and returns the
// recovered pages, the play they hold and its records by format version.
func recoverCrash(t *testing.T, opts Options, crash crashState, wantOps int) (pages [][]byte, xml string, versions map[int]int) {
	dev := restoreDev(t, opts.PageSize, crash.pages)
	log := wal.NewMemStorageFrom(crash.log)
	res, err := wal.Recover(dev, log)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if res.RedoneOps != wantOps || res.UndoneOps != 0 {
		t.Fatalf("recovery result %+v for %d committed operations", res, wantOps)
	}
	pages = snapshotDev(t, dev)
	var clock pagedev.CrashClock
	rdb, _, _, err := openCrashDB(t, opts, crashState{pages: pages, log: log.Snapshot()}, &clock)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	doc, err := rdb.Document("play")
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Check(); err != nil {
		t.Fatalf("recovered document: %v", err)
	}
	xml, _ = exportOf(t, rdb, "play")
	return pages, xml, recordVersions(t, rdb)
}

// The crash copy of shiftLogScript's session as the commit before the
// shift record existed (0878be7) left it: its device pages and its log,
// physical records only under the NXWAL001 header. Written by this
// file's openEditSession + apply in a checkout of that commit, as
// gzip(page count uint32 | pages | log); oldFlushedSHA is the SHA-256 of
// the store that build wrote when the same session was flushed instead.
const (
	oldCrashFile  = "testdata/edits-2007.crash-v1.gz"
	oldFlushedSHA = "eb5f49c5f6eebdfaa9c0d968d7cdb42ded7d361e9302901b47fdc5637bf239a8"
)

func loadOldCrash(t testing.TB, pageSize int) crashState {
	f, err := os.Open(oldCrashFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	var crash crashState
	for i := 0; i < n; i++ {
		crash.pages = append(crash.pages, b[:pageSize])
		b = b[pageSize:]
	}
	crash.log = b
	return crash
}

// TestShiftLogRecoveryEquivalence: what restart recovery rebuilds from
// the log is, page for page and byte for byte, what the buffer pool
// writes when it is flushed — for a log of shift records, and for the
// log of the same 2 007 edits as a build before the shift record wrote
// it (a store that crashed under the older build and is opened by this
// one). Every page the log has an image of is also reconstructed from
// the log alone (the scrubber's repair path) and must equal the pool's
// copy.
func TestShiftLogRecoveryEquivalence(t *testing.T) {
	rootName, script := shiftLogScript(t)
	s, st := openEditSession(t, rootName, nil)
	s.apply(t, script) // one session, no checkpoint
	if s.db.wal.Stats().Checkpoints != 0 {
		t.Fatal("the session checkpointed; the crash copy would replay only a tail")
	}
	crash := crashState{pages: snapshotDev(t, s.mem), log: st.Snapshot()}
	byType := recordTypes(t, crash.log)
	t.Logf("%d edits logged %d bytes: %v", len(script), len(crash.log), byType)
	if byType["shift"] < len(script)/2 {
		t.Fatalf("%d shift records in the log of %d edits", byType["shift"], len(script))
	}
	// (The operations are the edits and the label interns between them.)
	if byType["begin"] < len(script) {
		t.Fatalf("%d operations for %d edits", byType["begin"], len(script))
	}

	// The repair path: each imaged page from the log alone.
	imaged := s.db.wal.ImagedPages()
	if len(imaged) < 10 {
		t.Fatalf("only %d pages imaged", len(imaged))
	}
	for _, p := range imaged {
		img, ok, err := s.db.wal.ReconstructPage(p, s.opts.PageSize)
		if err != nil || !ok {
			t.Fatalf("reconstruct page %d: ok=%v err=%v", p, ok, err)
		}
		f, err := s.db.pool.Get(p)
		if err != nil {
			t.Fatal(err)
		}
		f.RLatch()
		same := sameBody(img, f.Data()) // the stamp is set at write-back
		f.RUnlatch()
		f.Release()
		if !same {
			t.Fatalf("page %d reconstructed from the log differs from the pool's copy", p)
		}
	}

	// The clean store: everything flushed.
	if err := s.db.Flush(); err != nil {
		t.Fatal(err)
	}
	clean := snapshotDev(t, s.mem)
	want, _ := exportOf(t, s.db, "play")
	if err := s.db.Close(); err != nil {
		t.Fatal(err)
	}

	// The crash copy, recovered.
	got, xml, versions := recoverCrash(t, s.opts, crash, byType["begin"])
	if len(got) != len(clean) {
		t.Fatalf("recovered store has %d pages, the flushed one %d", len(got), len(clean))
	}
	for p := range got {
		if !bytes.Equal(got[p], clean[p]) {
			t.Fatalf("page %d of the recovered store differs from the flushed store", p)
		}
	}
	if xml != want {
		t.Fatal("recovered document differs")
	}

	// The older build's crash copy of the same session.
	old := loadOldCrash(t, s.opts.PageSize)
	oldTypes := recordTypes(t, old.log)
	t.Logf("the older build logged %d bytes: %v", len(old.log), oldTypes)
	if string(old.log[:8]) != "NXWAL001" || oldTypes["shift"] != 0 || oldTypes["begin"] != byType["begin"] {
		t.Fatalf("%s is not the physical log of this script: header %q, %v", oldCrashFile, old.log[:8], oldTypes)
	}
	oldGot, xml, oldVersions := recoverCrash(t, s.opts, old, oldTypes["begin"])
	sum := sha256.New()
	for _, p := range oldGot {
		sum.Write(p)
	}
	if hex.EncodeToString(sum.Sum(nil)) != oldFlushedSHA {
		t.Fatal("the older build's crash copy does not recover to the store that build flushed")
	}
	if xml != want {
		t.Fatal("document recovered from the older build's log differs")
	}
	// Both logs describe the same edits and recover to the same document
	// (above; recoverCrash also runs its invariant check). They no longer
	// recover to the same pages, as they did while both builds wrote record
	// format 2: the older build's records have a header on every text,
	// this build's are format 4, so the two stores split their records at
	// different edits. Opened, the older build's store is upgraded to
	// format 4 too.
	if oldVersions[noderep.FormatVersion] == 0 || len(oldVersions) != 1 || versions[noderep.FormatVersion] == 0 || len(versions) != 1 {
		t.Fatalf("records by format version once opened: the older build's store %v, this one's %v, want all of version %d",
			oldVersions, versions, noderep.FormatVersion)
	}
	w, err := wal.OpenWriter(wal.NewMemStorageFrom(old.log), wal.Options{PageSize: s.opts.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.ImagedPages()) < 10 {
		t.Fatalf("only %d pages imaged in the older build's log", len(w.ImagedPages()))
	}
	for _, p := range w.ImagedPages() {
		img, ok, err := w.ReconstructPage(p, s.opts.PageSize)
		if err != nil || !ok || !sameBody(img, oldGot[p]) {
			t.Fatalf("page %d reconstructed from the older build's log: ok=%v err=%v", p, ok, err)
		}
	}
}

// failingTruncate is a log storage whose next fail Truncate calls fail.
type failingTruncate struct {
	*wal.MemStorage
	fail int
}

var errTruncate = errors.New("injected truncate failure")

func (f *failingTruncate) Truncate(n int64) error {
	if f.fail > 0 {
		f.fail--
		return errTruncate
	}
	return f.MemStorage.Truncate(n)
}

// TestFailedCheckpointStartsAnEpoch: a checkpoint whose log reset fails
// has still put its checkpoint record into the log, and recovery replays
// nothing in front of that record — so the edits after it must image
// their pages again before they log shifts, or the crash copy does not
// recover at all.
func TestFailedCheckpointStartsAnEpoch(t *testing.T) {
	rootName, script := shiftLogScript(t)
	var ft *failingTruncate
	s, st := openEditSession(t, rootName, func(m *wal.MemStorage) wal.Storage {
		ft = &failingTruncate{MemStorage: m}
		return ft
	})
	s.apply(t, script[:600])
	ft.fail = 1
	if err := s.db.Flush(); !errors.Is(err, errTruncate) {
		t.Fatalf("checkpoint over a failing truncate: %v", err)
	}
	s.apply(t, script[600:1200])
	crash := crashState{pages: snapshotDev(t, s.mem), log: st.Snapshot()}
	byType := recordTypes(t, crash.log)
	if byType["checkpoint"] != 1 || byType["shift"] < 600 {
		t.Fatalf("the log does not hold the failed checkpoint between shift records: %v", byType)
	}
	after := 0 // operations behind the checkpoint record
	if _, _, err := wal.Scan(wal.NewMemStorageFrom(crash.log), func(r wal.Record) error {
		switch r.Type {
		case wal.RecCheckpoint:
			after = 0
		case wal.RecBegin:
			after++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	if err := s.db.Flush(); err != nil {
		t.Fatal(err)
	}
	clean := snapshotDev(t, s.mem)
	want, _ := exportOf(t, s.db, "play")
	if err := s.db.Close(); err != nil {
		t.Fatal(err)
	}
	got, xml, _ := recoverCrash(t, s.opts, crash, after)
	if len(got) != len(clean) {
		t.Fatalf("recovered store has %d pages, the flushed one %d", len(got), len(clean))
	}
	for p := range got {
		if !bytes.Equal(got[p], clean[p]) {
			t.Fatalf("page %d of the recovered store differs from the flushed store", p)
		}
	}
	if xml != want {
		t.Fatal("recovered document differs")
	}
}

// BenchmarkRecoverEdits is restart recovery of the same crash — the
// 2 007 edits of shiftLogScript since the last checkpoint, 22 pages —
// from this build's log of shift records and from the older build's
// physical log.
func BenchmarkRecoverEdits(b *testing.B) {
	rootName, script := shiftLogScript(b)
	s, st := openEditSession(b, rootName, nil)
	s.apply(b, script)
	crashes := map[string]crashState{
		"shift":    {pages: snapshotDev(b, s.mem), log: st.Snapshot()},
		"physical": loadOldCrash(b, s.opts.PageSize),
	}
	s.db.Close()
	for _, name := range []string{"shift", "physical"} {
		crash := crashes[name]
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(crash.log)))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dev := restoreDev(b, s.opts.PageSize, crash.pages)
				log := wal.NewMemStorageFrom(crash.log)
				b.StartTimer()
				if _, err := wal.Recover(dev, log); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
