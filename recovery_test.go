package natix

// Crash-recovery fault-injection tests: a shared crash clock counts
// every write — database page writes and log writes alike — and the
// matrix "crashes the machine" at write 1, write 2, ... of an
// operation, reboots from exactly the bytes that survived, and checks
// that restart recovery restores a consistent store: the pre-existing
// document byte-identical, the interrupted operation either fully
// applied or fully absent, physical invariants intact, and the store
// still writable. The torn variant half-applies the crashing write.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"natix/internal/corpus"
	"natix/internal/noderep"
	"natix/internal/pagedev"
	"natix/internal/pageformat"
	"natix/internal/records"
	"natix/internal/wal"
	"natix/internal/xmlkit"
)

// faultLogStorage wraps an in-memory log storage with the shared crash
// clock: every WriteAt ticks it, and once crashed every operation
// fails, like a process that is simply gone. The crashing write can
// tear (first half of the buffer reaches storage).
type faultLogStorage struct {
	inner *wal.MemStorage
	clock *pagedev.CrashClock
}

func (f *faultLogStorage) WriteAt(p []byte, off int64) (int, error) {
	crash, torn := f.clock.Tick()
	if !crash {
		return f.inner.WriteAt(p, off)
	}
	if torn && len(p) > 1 {
		f.inner.WriteAt(p[:len(p)/2], off)
	}
	return 0, pagedev.ErrInjected
}

func (f *faultLogStorage) ReadAt(p []byte, off int64) (int, error) {
	if f.clock.Check() {
		return 0, pagedev.ErrInjected
	}
	return f.inner.ReadAt(p, off)
}

func (f *faultLogStorage) Size() (int64, error) {
	if f.clock.Check() {
		return 0, pagedev.ErrInjected
	}
	return f.inner.Size()
}

func (f *faultLogStorage) Truncate(n int64) error {
	if f.clock.Check() {
		return pagedev.ErrInjected
	}
	return f.inner.Truncate(n)
}

func (f *faultLogStorage) Sync() error {
	if f.clock.Check() {
		return pagedev.ErrInjected
	}
	return f.inner.Sync()
}

func (f *faultLogStorage) Close() error { return nil }

// crashOpts is the store configuration the crash matrix runs under: a
// tiny buffer pool so imports overflow it and dirty pages are written
// back mid-operation (exercising the WAL rule and undo), and the path
// index on so index maintenance is inside the operation boundary.
func crashOpts() Options {
	return Options{
		PageSize:    2048,
		BufferBytes: 16 * 2048,
		WAL:         true,
		PathIndex:   true,
		walBufLimit: 1, // every log record append = one write = one crash point
	}.withDefaults()
}

// snapshotDev copies the surviving device contents (reading the
// underlying Mem directly: the fault wrapper refuses reads after a
// crash, but the test harness plays the role of the disk).
func snapshotDev(t testing.TB, mem *pagedev.Mem) [][]byte {
	t.Helper()
	n := int(mem.NumPages())
	pages := make([][]byte, n)
	for i := 0; i < n; i++ {
		pages[i] = make([]byte, mem.PageSize())
		if err := mem.Read(pagedev.PageNo(i), pages[i]); err != nil {
			t.Fatalf("snapshot page %d: %v", i, err)
		}
	}
	return pages
}

func restoreDev(t testing.TB, pageSize int, pages [][]byte) *pagedev.Mem {
	t.Helper()
	mem, err := pagedev.NewMem(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Grow(pagedev.PageNo(len(pages))); err != nil {
		t.Fatal(err)
	}
	for i, p := range pages {
		if err := mem.Write(pagedev.PageNo(i), p); err != nil {
			t.Fatal(err)
		}
	}
	return mem
}

// crashState is one frozen pre-operation store image.
type crashState struct {
	pages [][]byte
	log   []byte
}

// buildBaseState creates a store with one committed document ("keep")
// and checkpoints it, returning the frozen image and the document's
// canonical export.
func buildBaseState(t *testing.T, opts Options) (crashState, string) {
	t.Helper()
	mem, err := pagedev.NewMem(opts.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	st := wal.NewMemStorage()
	// A disarmed fault wrapper keeps the Mem alive across db.Close (its
	// Close is a no-op), so the post-close bytes can be snapshotted.
	var clock pagedev.CrashClock
	db, err := openWith(opts, pagedev.NewFault(mem, &clock), nil, st, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ImportXML("keep", strings.NewReader(testPlayXML("keep", 8))); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.ExportXML("keep", &buf); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return crashState{pages: snapshotDev(t, mem), log: st.Snapshot()}, buf.String()
}

// testPlayXML generates a small but structurally varied document:
// nested elements, attributes, repeated siblings, text runs.
func testPlayXML(title string, scenes int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<PLAY id=%q><TITLE>The tragedy of %s</TITLE>", title, title)
	for i := 0; i < scenes; i++ {
		fmt.Fprintf(&b, "<SCENE n=\"%d\"><STAGEDIR>Enter %s</STAGEDIR>", i, title)
		for j := 0; j < 6; j++ {
			fmt.Fprintf(&b, "<SPEECH><SPEAKER>S%d</SPEAKER><LINE>words of scene %d line %d, %s</LINE></SPEECH>", j, i, j, strings.Repeat("on and on ", 8))
		}
		b.WriteString("</SCENE>")
	}
	b.WriteString("</PLAY>")
	return b.String()
}

// openCrashDB opens a store over a frozen image with the crash clock
// armed at budget (0 disarms), returning the DB plus the live devices
// for post-crash snapshotting.
func openCrashDB(t *testing.T, opts Options, state crashState, clock *pagedev.CrashClock) (*DB, *pagedev.Mem, *wal.MemStorage, error) {
	t.Helper()
	mem := restoreDev(t, opts.PageSize, state.pages)
	st := wal.NewMemStorageFrom(state.log)
	db, err := openWith(opts, pagedev.NewFault(mem, clock), nil, &faultLogStorage{inner: st, clock: clock}, true)
	return db, mem, st, err
}

// verifyRecovered reboots from the surviving bytes, letting restart
// recovery repair the store, and runs the scenario's checks. It
// returns the recovered DB for further checks; the caller closes it.
func verifyRecovered(t *testing.T, opts Options, mem *pagedev.Mem, st *wal.MemStorage, check func(db *DB)) {
	t.Helper()
	state := crashState{pages: snapshotDev(t, mem), log: st.Snapshot()}
	var clock pagedev.CrashClock // disarmed
	db, _, _, err := openCrashDB(t, opts, state, &clock)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db.Close()
	// Physical invariants of every surviving tree document.
	docs, err := db.Documents()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if d.Flat {
			continue
		}
		doc, err := db.Document(d.Name)
		if err != nil {
			t.Fatalf("Document(%s): %v", d.Name, err)
		}
		if err := doc.Check(); err != nil {
			t.Fatalf("invariants of %q violated after recovery: %v", d.Name, err)
		}
	}
	check(db)
	// The recovered store must still be writable end to end.
	if err := db.ImportXML("post-crash", strings.NewReader("<OK><X a=\"1\">fine</X></OK>")); err != nil {
		t.Fatalf("recovered store refuses imports: %v", err)
	}
	if err := db.Delete("post-crash"); err != nil {
		t.Fatal(err)
	}
}

func exportOf(t *testing.T, db *DB, name string) (string, bool) {
	t.Helper()
	var buf bytes.Buffer
	err := db.ExportXML(name, &buf)
	if errors.Is(err, ErrDocNotFound) {
		return "", false
	}
	if err != nil {
		t.Fatalf("export %q: %v", name, err)
	}
	return buf.String(), true
}

// runCrashMatrix executes op against the frozen base state, crashing
// at every write offset (and, in torn mode, tearing the crashing
// write), then verifies recovery after each crash.
func runCrashMatrix(t *testing.T, torn bool, op func(db *DB) error, check func(t *testing.T, db *DB, crashed bool)) {
	opts := crashOpts()
	state, keepXML := buildBaseState(t, opts)
	completed := false
	for budget := int64(1); budget <= 10000; budget++ {
		var clock pagedev.CrashClock
		clock.SetBudget(budget, torn)
		db, mem, st, err := openCrashDB(t, opts, state, &clock)
		if err != nil {
			// The crash landed inside Open itself (e.g. during the
			// session's first page reads — nothing written yet, but the
			// clock blocks everything). Skip to a later offset.
			if clock.Crashed() {
				continue
			}
			t.Fatalf("budget %d: open: %v", budget, err)
		}
		opErr := op(db)
		crashed := clock.Crashed()
		if opErr == nil && !crashed {
			// The whole operation fit under the budget: matrix done.
			clock.Disarm()
			db.Close()
			completed = true
			if budget == 1 {
				t.Fatal("operation issued no writes at all?")
			}
			t.Logf("crash matrix covered %d write offsets", budget-1)
			break
		}
		if opErr == nil && crashed {
			t.Fatalf("budget %d: crash injected but operation reported success", budget)
		}
		// Crash: abandon the DB (no Close — the machine is gone),
		// reboot from the surviving bytes and verify.
		clock.Disarm()
		verifyRecovered(t, opts, mem, st, func(rdb *DB) {
			got, ok := exportOf(t, rdb, "keep")
			if !ok {
				t.Fatalf("budget %d: pre-existing document lost", budget)
			}
			if got != keepXML {
				t.Fatalf("budget %d: pre-existing document altered after recovery", budget)
			}
			check(t, rdb, true)
		})
	}
	if !completed {
		t.Fatal("crash matrix never ran the operation to completion")
	}
}

// TestWALFileCleanRoundTrip exercises the real file-backed path: a
// logged session closes cleanly (checkpoint + truncated log) and
// reopens without recovery work.
func TestWALFileCleanRoundTrip(t *testing.T) {
	path := t.TempDir() + "/store.natix"
	db, err := Open(Options{Path: path, WAL: true, PathIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	xml := testPlayXML("filed", 6)
	if err := db.ImportXML("filed", strings.NewReader(xml)); err != nil {
		t.Fatal(err)
	}
	want, _ := exportOf(t, db, "filed")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Path: path, WAL: true, PathIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rec, err := db2.Recovery()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Recovered {
		t.Fatalf("clean close still required recovery: %+v", rec)
	}
	got, ok := exportOf(t, db2, "filed")
	if !ok || got != want {
		t.Fatal("document did not survive the file round trip")
	}
}

// TestWALFileKillRedo kills a file-backed session without Close — the
// log holds committed operations whose pages never reached the
// database file — and checks that reopening redoes them.
func TestWALFileKillRedo(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/store.natix"
	db, err := Open(Options{Path: path, WAL: true, PathIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	xml := testPlayXML("killed", 6)
	if err := db.ImportXML("killed", strings.NewReader(xml)); err != nil {
		t.Fatal(err)
	}
	want, _ := exportOf(t, db, "killed")
	// "kill -9": copy the on-disk state out from under the live
	// process, which never gets to flush or close.
	copyFile := func(src, dst string) {
		t.Helper()
		b, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	copyFile(path, dir+"/copy.natix")
	copyFile(path+"-wal", dir+"/copy.natix-wal")

	db2, err := Open(Options{Path: dir + "/copy.natix", WAL: true, PathIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rec, err := db2.Recovery()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Recovered || rec.RedoneOps == 0 {
		t.Fatalf("kill without close must trigger redo, got %+v", rec)
	}
	got, ok := exportOf(t, db2, "killed")
	if !ok || got != want {
		t.Fatal("committed import lost after kill")
	}
	doc, err := db2.Document("killed")
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Check(); err != nil {
		t.Fatalf("invariants after redo: %v", err)
	}
	db.Close() // release the original
}

// TestStaleWALDiscardedOnFreshCreate: deleting the database file but
// not its log, then creating a new database at the same path, must
// discard the stale log — whether or not the new session enables WAL —
// or a later Open would replay the dead database's records onto the
// new one.
func TestStaleWALDiscardedOnFreshCreate(t *testing.T) {
	for _, newSessionWAL := range []bool{false, true} {
		name := "recreate-unlogged"
		if newSessionWAL {
			name = "recreate-logged"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := dir + "/db.natix"
			db1, err := Open(Options{Path: path, WAL: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := db1.ImportXML("old", strings.NewReader("<OLD>gone</OLD>")); err != nil {
				t.Fatal(err)
			}
			// Kill the session (no Close: the log stays populated) and
			// delete only the database file.
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}

			db2, err := Open(Options{Path: path, WAL: newSessionWAL})
			if err != nil {
				t.Fatal(err)
			}
			if err := db2.ImportXML("new", strings.NewReader("<NEW>kept</NEW>")); err != nil {
				t.Fatal(err)
			}
			if err := db2.Close(); err != nil {
				t.Fatal(err)
			}

			db3, err := Open(Options{Path: path, WAL: true})
			if err != nil {
				t.Fatalf("reopen after recreate: %v", err)
			}
			defer db3.Close()
			if _, ok := exportOf(t, db3, "old"); ok {
				t.Fatal("stale log was replayed onto the recreated database")
			}
			if got, ok := exportOf(t, db3, "new"); !ok || !strings.Contains(got, "kept") {
				t.Fatal("recreated database lost its own document")
			}
			db1.Close()
		})
	}
}

func TestCrashRecoveryImport(t *testing.T) {
	// ~45 KB of XML against a 32 KB pool: evictions write dirty pages
	// (and force log flushes) all through the import — crash points
	// land mid-operation on both files, not just at commit.
	importXML := testPlayXML("doomed", 30)
	for _, torn := range []bool{false, true} {
		name := "clean-cut"
		if torn {
			name = "torn-write"
		}
		t.Run(name, func(t *testing.T) {
			runCrashMatrix(t,
				torn,
				func(db *DB) error {
					return db.ImportXML("doomed", strings.NewReader(importXML))
				},
				func(t *testing.T, db *DB, crashed bool) {
					// Atomicity: the import is all-or-nothing.
					got, ok := exportOf(t, db, "doomed")
					if ok && got == "" {
						t.Fatal("document present but empty")
					}
					if ok {
						// Present: must match a clean import of the same
						// bytes, byte for byte.
						ref, err := Open(Options{PageSize: 2048})
						if err != nil {
							t.Fatal(err)
						}
						defer ref.Close()
						if err := ref.ImportXML("doomed", strings.NewReader(importXML)); err != nil {
							t.Fatal(err)
						}
						want, _ := exportOf(t, ref, "doomed")
						if got != want {
							t.Fatal("recovered import is not byte-identical")
						}
					}
				},
			)
		})
	}
}

func TestCrashRecoveryDelete(t *testing.T) {
	runCrashMatrix(t,
		false,
		func(db *DB) error { return db.Delete("keep") },
		func(t *testing.T, db *DB, crashed bool) {
			// runCrashMatrix already asserted "keep" survives byte-
			// identically; a crash during delete must never land
			// in between. (If the delete had committed before the
			// crash the matrix's keep-check would fail — the commit
			// record is the last write, and every later write belongs
			// to the checkpoint, after which the op cannot crash.)
		},
	)
}

func TestCrashRecoveryDeleteTorn(t *testing.T) {
	runCrashMatrix(t,
		true,
		func(db *DB) error { return db.Delete("keep") },
		func(t *testing.T, db *DB, crashed bool) {},
	)
}

func TestCrashRecoveryConvert(t *testing.T) {
	runCrashMatrix(t,
		false,
		func(db *DB) error { return db.Convert("keep", true) },
		func(t *testing.T, db *DB, crashed bool) {
			// Content equality is checked by the matrix; mode may be
			// either, depending on where the crash landed.
		},
	)
}

// nodeEdit is one step of the node-edit crash script.
type nodeEdit struct {
	del    bool
	parent []int
	idx    int
	name   string // element to insert; "" inserts text
	text   string
}

func (e nodeEdit) apply(doc *Document) error {
	switch {
	case e.del:
		return doc.DeleteNode(append(append([]int(nil), e.parent...), e.idx))
	case e.name != "":
		return doc.InsertElement(e.parent, e.idx, e.name)
	default:
		return doc.InsertText(e.parent, e.idx, e.text)
	}
}

// applyToModel performs the edit on the in-memory document.
func (e nodeEdit) applyToModel(root *xmlkit.Node) {
	p := root
	for _, i := range e.parent {
		p = p.Children[i]
	}
	if e.del {
		p.Children = append(p.Children[:e.idx:e.idx], p.Children[e.idx+1:]...)
		return
	}
	n := xmlkit.NewText(e.text)
	if e.name != "" {
		n = xmlkit.NewElement(e.name)
	}
	p.Children = append(p.Children[:e.idx:e.idx], append([]*xmlkit.Node{n}, p.Children[e.idx:]...)...)
}

// nodeEditScript is the paper's incremental workload in small: the first
// limit nodes of a corpus play inserted one by one in binary-tree BFS
// order, every ninth deleted again and re-inserted, and at the end three
// speeches that have grown children deleted whole.
func nodeEditScript(limit int) (root string, script []nodeEdit) {
	return nodeEditScriptOf(corpus.GeneratePlay(corpus.SmallSpec(1), 0), limit)
}

// nodeEditScriptOf is nodeEditScript over the first limit nodes of play.
func nodeEditScriptOf(play *xmlkit.Node, limit int) (root string, script []nodeEdit) {
	model := xmlkit.NewElement(play.Name)
	for i, op := range corpus.BinaryBFSOps(play) {
		if i == limit {
			break
		}
		ins := nodeEdit{parent: op.ParentPath, idx: op.Index, name: op.Name, text: op.Text}
		script = append(script, ins)
		ins.applyToModel(model)
		if i%9 == 8 {
			script = append(script, nodeEdit{del: true, parent: op.ParentPath, idx: op.Index}, ins)
		}
	}
	for k := 0; k < 3; k++ {
		var find func(n *xmlkit.Node, path []int) *nodeEdit
		find = func(n *xmlkit.Node, path []int) *nodeEdit {
			for i, c := range n.Children {
				if c.Name == "SPEECH" && len(c.Children) > 1 {
					return &nodeEdit{del: true, parent: append([]int(nil), path...), idx: i}
				}
				if e := find(c, append(path, i)); e != nil {
					return e
				}
			}
			return nil
		}
		if e := find(model, nil); e != nil {
			script = append(script, *e)
			e.applyToModel(model)
		}
	}
	return play.Name, script
}

// recordPlace is where one record of a document lies.
type recordPlace struct {
	page      pagedev.PageNo // page of the body
	off, size int            // cell offset and length; 0, 0 for a forwarded record
	forwarded bool
}

// recordPlaces maps every record of the document to its place on disk.
func recordPlaces(t *testing.T, db *DB, doc *Document) map[records.RID]recordPlace {
	t.Helper()
	trees := db.store.Trees()
	rm := trees.Records()
	out := map[records.RID]recordPlace{}
	var visit func(rid records.RID)
	visit = func(rid records.RID) {
		rec, err := trees.LoadRecordForInspection(rid)
		if err != nil {
			t.Fatal(err)
		}
		page, err := rm.PageOf(rid)
		if err != nil {
			t.Fatal(err)
		}
		place := recordPlace{page: page, forwarded: page != rid.Page}
		if !place.forwarded {
			f, err := db.pool.Get(page)
			if err != nil {
				t.Fatal(err)
			}
			f.RLatch()
			sl, _ := pageformat.AsSlotted(f.Data())
			span, err := sl.CellSpan(int(rid.Slot))
			f.RUnlatch()
			f.Release()
			if err != nil {
				t.Fatal(err)
			}
			place.off, place.size = span.Off, span.Len
		}
		out[rid] = place
		rec.Root.Walk(func(n *noderep.Node) bool {
			if n.Kind == noderep.KindProxy {
				visit(n.Target)
			}
			return true
		})
	}
	visit(doc.tree.RootRID())
	return out
}

// TestCrashRecoveryNodeEdits is the crash matrix over the paper's own
// path: Document.InsertElement, InsertText and DeleteNode, each one
// logged operation. The script runs in sessions of a few edits; for every
// session the machine is crashed at write 1, write 2, ... (with
// walBufLimit 1 every log append is a write, so every log record of
// every edit is a crash point), rebooted from the surviving bytes and
// checked: invariants hold and the document is byte for byte the one
// before the interrupted edit or the one after it — never in between.
// An uncrashed pass first records those documents against an in-memory
// model and classifies how each edit reached the page, and the test
// insists that the script crosses every way there is: a splice where the
// record lies, a relocation inside its page (with and without the cell
// area being compacted), a move to another page behind a forwarding
// stub, and a split that patches parent pointers.
func TestCrashRecoveryNodeEdits(t *testing.T) {
	const session = 8
	opts := crashOpts()
	opts.PageSize, opts.BufferBytes = 1024, 16*1024
	opts.PathIndex = false
	rootName, script := nodeEditScript(420)

	// Uncrashed pass: one frozen state per session start, the export
	// after every edit, and what each edit did to its records.
	mem, err := pagedev.NewMem(opts.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	st := wal.NewMemStorage()
	var disarmed pagedev.CrashClock
	db, err := openWith(opts, pagedev.NewFault(mem, &disarmed), nil, st, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ImportXML("play", strings.NewReader("<"+rootName+"/>")); err != nil {
		t.Fatal(err)
	}
	model := xmlkit.NewElement(rootName)
	exports := []string{xmlkit.SerializeString(model)}
	var states []crashState
	var inPlace, relocated, compacted, moved int
	var fusing, unfusing int // splices that fused a text with its element, or took it out again
	counters := map[string]int64{}
	closeSession := func() {
		m, err := db.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []string{"core.records_spliced", "core.records_rewritten", "core.splits", "core.parent_patches", "wal.shift_records"} {
			counters[c] += m.Counters[c]
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for g, e := range script {
		if g%session == 0 {
			closeSession()
			states = append(states, crashState{pages: snapshotDev(t, mem), log: st.Snapshot()})
			if db, mem, st, err = openCrashDB(t, opts, states[len(states)-1], &disarmed); err != nil {
				t.Fatal(err)
			}
		}
		doc, err := db.Document("play")
		if err != nil {
			t.Fatal(err)
		}
		before := recordPlaces(t, db, doc)
		// A text into an element without children, or the only child, a
		// text, out of its element: record format 3 stores the two under one
		// header, so these edits set or clear a mark besides moving bytes.
		target := model
		for _, i := range e.parent {
			target = target.Children[i]
		}
		fuses := !e.del && e.name == "" && len(target.Children) == 0
		unfuses := e.del && len(target.Children) == 1 && target.Children[0].IsText()
		spliced := db.store.Trees().Stats().RecordsSpliced
		if err := e.apply(doc); err != nil {
			t.Fatalf("edit %d: %v", g, err)
		}
		if db.store.Trees().Stats().RecordsSpliced > spliced {
			if fuses {
				fusing++
			}
			if unfuses {
				unfusing++
			}
		}
		e.applyToModel(model)
		want := xmlkit.SerializeString(model)
		if got, _ := exportOf(t, db, "play"); got != want {
			t.Fatalf("edit %d: document differs from the model", g)
		}
		exports = append(exports, want)
		after := recordPlaces(t, db, doc)
		for rid, was := range before {
			now, ok := after[rid]
			switch {
			case !ok || was.forwarded || now.size == was.size:
			case now.page != was.page:
				moved++
			case now.off == was.off:
				inPlace++
			default:
				relocated++
				for other, o := range before {
					if p := after[other]; other != rid && o.page == was.page && p.page == o.page && p.off != o.off {
						compacted++
						break
					}
				}
			}
		}
	}
	closeSession()
	t.Logf("%d edits: records resized where they lay %d times, relocated in their page %d times (%d with compaction), moved behind a stub %d times; %d splices fused a text with its element, %d unfused one; %v",
		len(script), inPlace, relocated, compacted, moved, fusing, unfusing, counters)
	if inPlace == 0 || relocated == compacted || compacted == 0 || moved == 0 ||
		counters["core.records_spliced"] == 0 || counters["core.records_rewritten"] == 0 ||
		counters["core.splits"] == 0 || counters["core.parent_patches"] == 0 {
		t.Fatal("the script does not cross every way an edit reaches its page")
	}
	// The commonest edit of all — a text into the empty element BFS order
	// put there before it — is a splice that also sets the fused mark, and
	// the script's delete-and-reinsert of every ninth node takes some of
	// those texts out again: the crash points must keep covering both.
	if fusing < 50 || unfusing < 5 {
		t.Fatalf("%d fusing and %d unfusing splices: the matrix no longer covers them", fusing, unfusing)
	}
	// Most splices log a shift record (a session's first edit of a page
	// logs its before-image instead); the crash points below are only as
	// good as the records they interrupt.
	if counters["wal.shift_records"] < counters["core.records_spliced"]/2 {
		t.Fatalf("%d spliced edits logged %d shift records: the matrix no longer covers them",
			counters["core.records_spliced"], counters["wal.shift_records"])
	}

	// Crash passes, session by session.
	offsets := 0
	for s, state := range states {
		edits := script[s*session : min((s+1)*session, len(script))]
		for budget := int64(1); ; budget++ {
			if budget > 5000 {
				t.Fatalf("session %d never ran to completion", s)
			}
			var clock pagedev.CrashClock
			clock.SetBudget(budget, false)
			db, mem, st, err := openCrashDB(t, opts, state, &clock)
			if err != nil {
				if clock.Crashed() {
					continue // the crash landed inside Open
				}
				t.Fatalf("session %d budget %d: open: %v", s, budget, err)
			}
			failed := -1
			for j, e := range edits {
				doc, err := db.Document("play")
				if err == nil {
					err = e.apply(doc)
				}
				if err != nil {
					failed = j
					break
				}
			}
			if failed < 0 {
				if clock.Crashed() {
					t.Fatalf("session %d budget %d: crash injected but every edit reported success", s, budget)
				}
				clock.Disarm()
				db.Close()
				break
			}
			if !clock.Crashed() {
				t.Fatalf("session %d budget %d: edit %d failed without a crash", s, budget, failed)
			}
			offsets++
			clock.Disarm()
			g := s*session + failed
			verifyRecovered(t, opts, mem, st, func(rdb *DB) {
				got, ok := exportOf(t, rdb, "play")
				if !ok {
					t.Fatalf("session %d budget %d: document lost", s, budget)
				}
				if got != exports[g] && got != exports[g+1] {
					t.Fatalf("session %d budget %d: after a crash in edit %d the document is neither the one before it nor the one after it", s, budget, g)
				}
			})
		}
	}
	t.Logf("crash matrix covered %d write offsets over %d edits", offsets, len(script))
}
