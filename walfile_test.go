package natix

import (
	"os"
	"runtime"
	"strings"
	"testing"

	"natix/internal/corpus"
	"natix/internal/xmlkit"
)

// killCopy copies the store at src and its log to dst out from under
// the live session, which never gets to flush or close: what a kill -9
// of the process would leave on disk.
func killCopy(t *testing.T, src, dst string) {
	t.Helper()
	for _, suffix := range []string{"", "-wal"} {
		b, err := os.ReadFile(src + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst+suffix, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// openNoSync opens the logged NoSync file store at path, creating it
// when there is none.
func openNoSync(t *testing.T, path string) *DB {
	t.Helper()
	db, err := Open(Options{Path: path, PageSize: 1024, WAL: true, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// applyEdits runs script on the document "play" of db and, unless it is
// nil, on model.
func applyEdits(t *testing.T, db *DB, model *xmlkit.Node, script []nodeEdit) {
	t.Helper()
	doc, err := db.Document("play")
	if err != nil {
		t.Fatal(err)
	}
	for g, e := range script {
		if err := e.apply(doc); err != nil {
			t.Fatalf("edit %d: %v", g, err)
		}
		if model != nil {
			e.applyToModel(model)
		}
	}
}

// TestWALFileNoSyncKillRedo is TestWALFileKillRedo for node edits
// under NoSync, whose commits leave their records in the log file's
// page cache (on Linux through the mapping of its tail): a copy taken
// without Close recovers every edit whose call returned.
func TestWALFileNoSyncKillRedo(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/store.natix"
	db := openNoSync(t, path)
	defer db.Close()
	rootName, script := nodeEditScript(300)
	if err := db.ImportXML("play", strings.NewReader("<"+rootName+"/>")); err != nil {
		t.Fatal(err)
	}
	model := xmlkit.NewElement(rootName)
	applyEdits(t, db, model, script)
	killCopy(t, path, dir+"/copy.natix")

	db2 := openNoSync(t, dir+"/copy.natix")
	defer db2.Close()
	if rec, err := db2.Recovery(); err != nil || !rec.Recovered || rec.RedoneOps == 0 {
		t.Fatalf("kill without close must trigger redo, got %+v, %v", rec, err)
	}
	if got, _ := exportOf(t, db2, "play"); got != xmlkit.SerializeString(model) {
		t.Fatal("the recovered document differs from the edits that returned")
	}
	doc, err := db2.Document("play")
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Check(); err != nil {
		t.Fatalf("invariants after redo: %v", err)
	}
}

// TestWALFileZeroTailReopen reopens a store whose log is a header
// followed by zeros and no record: what a process killed after a
// checkpoint and the growth step of the log file's next append, before
// the append's copy reached the file, leaves. The reopened session's
// edit must land behind the header, where a scan finds it, and not
// behind the zeros.
func TestWALFileZeroTailReopen(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/store.natix"
	db := openNoSync(t, path)
	defer db.Close()
	rootName, script := nodeEditScript(20)
	if err := db.ImportXML("play", strings.NewReader("<"+rootName+"/>")); err != nil {
		t.Fatal(err)
	}
	model := xmlkit.NewElement(rootName)
	applyEdits(t, db, model, script[:10])
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path + "-wal"); err != nil || st.Size() != 32 {
		t.Fatalf("log after the checkpoint: %v, %v; want the 32-byte header", st.Size(), err)
	}
	// The next edit grows the log file; the copy keeps the growth and
	// loses the records, as if the kill came between the two.
	checkpointed := xmlkit.SerializeString(model)
	applyEdits(t, db, nil, script[10:11])
	killCopy(t, path, dir+"/copy.natix")
	log, err := os.ReadFile(dir + "/copy.natix-wal")
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOOS == "linux" && len(log) < 1<<20 {
		t.Fatalf("the log file grew to %d bytes, want a growth step of 1 MiB", len(log))
	}
	clear(log[32:])
	if err := os.WriteFile(dir+"/copy.natix-wal", log, 0o644); err != nil {
		t.Fatal(err)
	}

	db2 := openNoSync(t, dir+"/copy.natix")
	defer db2.Close()
	if got, _ := exportOf(t, db2, "play"); got != checkpointed {
		t.Fatal("the copy does not hold the checkpointed document")
	}
	applyEdits(t, db2, model, script[10:11])
	killCopy(t, dir+"/copy.natix", dir+"/copy2.natix")

	db3 := openNoSync(t, dir+"/copy2.natix")
	defer db3.Close()
	if got, _ := exportOf(t, db3, "play"); got != xmlkit.SerializeString(model) {
		t.Fatal("the edit made after reopening on a zero-tailed log was lost")
	}
}

// TestNoSyncCommitWritesNoLogFile counts the system-call writes to the
// log file (wal.writes): node edits on a NoSync file store make none
// but the log's growth steps, one per MiB of log; on a synced store
// every commit makes one.
func TestNoSyncCommitWritesNoLogFile(t *testing.T) {
	_, script := nodeEditScriptOf(corpus.GeneratePlay(corpus.DefaultSpec(), 0), 2000)
	for _, noSync := range []bool{true, false} {
		name, edits := "nosync", script[:2000]
		if !noSync {
			// Each synced commit pays an fsync: fewer edits show the same.
			name, edits = "synced", script[:200]
		}
		t.Run(name, func(t *testing.T) {
			if noSync && runtime.GOOS != "linux" {
				t.Skip("the log's tail is mapped on Linux only")
			}
			db, err := Open(Options{Path: t.TempDir() + "/store.natix", PageSize: 1024, WAL: true, NoSync: noSync})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			rootName := corpus.GeneratePlay(corpus.DefaultSpec(), 0).Name
			if err := db.ImportXML("play", strings.NewReader("<"+rootName+"/>")); err != nil {
				t.Fatal(err)
			}
			before, err := db.Metrics()
			if err != nil {
				t.Fatal(err)
			}
			applyEdits(t, db, nil, edits)
			after, err := db.Metrics()
			if err != nil {
				t.Fatal(err)
			}
			d := func(c string) int64 { return after.Counters[c] - before.Counters[c] }
			if d("wal.checkpoints") != 0 {
				t.Fatalf("%d checkpoints among the edits", d("wal.checkpoints"))
			}
			writes := d("wal.writes")
			if noSync {
				if steps := d("wal.bytes")/(1<<20) + 1; writes > steps {
					t.Fatalf("%d edits made %d log-file writes, want no more than the %d growth steps", len(edits), writes, steps)
				}
			} else if commits := d("wal.syncs"); commits < int64(len(edits)) || writes != commits {
				// A new label commits an operation of its own, so there
				// are more commits than edits.
				t.Fatalf("%d edits made %d commits and %d log-file writes, want one write per commit", len(edits), commits, writes)
			}
			t.Logf("%d edits, %d log bytes, %d log-file writes", len(edits), d("wal.bytes"), writes)
		})
	}
}
