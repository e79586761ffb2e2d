package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// logOps drives w through a fixed session: n committed operations of
// a few updates each, a checkpoint after the first half, and a second
// half behind it.
func logOps(t *testing.T, w *Writer, n int) {
	t.Helper()
	page := make([]byte, 1024)
	for i := 0; i < n; i++ {
		if i == n/2 {
			if err := w.Checkpoint(8); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.Begin("op", 8); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			page[i%len(page)] = byte(i)
			if _, err := w.AppendFirstUpdate(3, page, nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.AppendUpdate(3, []Range{{Off: i % 1000, Before: []byte{1, 2, 3}, After: []byte{byte(i), 5, 6}}}); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALFileMappedTailWritesWhatPwriteWrites runs one session on a
// log with a mapped tail and on one written with pwrite. Before the
// session closes, the mapped file holds the same bytes followed by the
// zeros of its last growth step; after a checkpoint both files are the
// 32-byte header. Only growth steps are system-call writes on the
// mapped log, and every commit is one on the other.
func TestWALFileMappedTailWritesWhatPwriteWrites(t *testing.T) {
	if !canMapTail {
		t.Skip("the log's tail is mapped on Linux only")
	}
	dir := t.TempDir()
	const ops = 3000 // ≈ 1.3 MB of log: the mapped file grows twice
	files := map[bool]string{false: filepath.Join(dir, "pwrite"), true: filepath.Join(dir, "mapped")}
	logs := map[bool]*FileStorage{}
	writers := map[bool]*Writer{}
	for mapped, path := range files {
		open := OpenFileStorage
		if mapped {
			open = OpenMappedFileStorage
		}
		st, err := open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		w, err := OpenWriter(st, Options{PageSize: 1024, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		logOps(t, w, ops)
		logs[mapped], writers[mapped] = st, w
	}

	plain, err := os.ReadFile(files[false])
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := os.ReadFile(files[true])
	if err != nil {
		t.Fatal(err)
	}
	if len(mapped) < len(plain) || !bytes.Equal(mapped[:len(plain)], plain) {
		t.Fatalf("mapped log (%d bytes) does not start with the pwrite log (%d bytes)", len(mapped), len(plain))
	}
	if tail := mapped[len(plain):]; len(tail) > growStep || bytes.ContainsFunc(tail, func(r rune) bool { return r != 0 }) {
		t.Fatalf("mapped log ends in %d bytes that are not a growth step's zeros", len(tail))
	}
	// One per commit, the header at open, and the checkpoint's record
	// and header.
	if got := logs[false].Writes(); got != ops+3 {
		t.Errorf("pwrite log: %d writes, want %d", got, ops+3)
	}
	// The checkpoint's header, and a growth step per MiB of log since
	// the open and since the checkpoint.
	if got, max := logs[true].Writes(), int64(1+len(plain)/growStep+2); got > max {
		t.Errorf("mapped log: %d writes for %d commits, want growth steps only (≤ %d)", got, ops, max)
	}

	for mapped, w := range writers {
		if err := w.Checkpoint(8); err != nil {
			t.Fatal(err)
		}
		if err := logs[mapped].Close(); err != nil {
			t.Fatal(err)
		}
	}
	plain, _ = os.ReadFile(files[false])
	mapped, _ = os.ReadFile(files[true])
	if len(plain) != headerSize || !bytes.Equal(mapped, plain) {
		t.Fatalf("after the checkpoint: mapped log %d bytes, pwrite log %d, want the same %d-byte header", len(mapped), len(plain), headerSize)
	}
}

// TestWALFileZeroTailCutAtOpen reopens a log whose file ends in the
// zeros of a growth step: the writer appends behind the last record,
// not behind the zeros, so a scan finds what it appends.
func TestWALFileZeroTailCutAtOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	st, err := OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := OpenWriter(st, Options{PageSize: 1024, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	logOps(t, w, 4)
	end := w.Size()
	if _, err := st.WriteAt(make([]byte, 4096), end); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st, err = OpenMappedFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	w, err = OpenWriter(st, Options{PageSize: 1024, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Size(); got != end {
		t.Fatalf("writer opened at %d, want the end of the last record %d", got, end)
	}
	if _, err := w.Begin("after-zeros", 8); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	var kinds []string
	if _, _, err := Scan(st, func(r Record) error {
		if r.Type == RecBegin {
			kinds = append(kinds, r.Kind)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 3 || kinds[2] != "after-zeros" {
		t.Fatalf("scan found begins %q, want the two behind the checkpoint and the one after the zeros", kinds)
	}
}

// TestWALFileTruncatedUnderMapping cuts a mapped log file through
// another handle: the next commit, whose copy lands in pages the file
// no longer has, fails with an error instead of faulting the process.
func TestWALFileTruncatedUnderMapping(t *testing.T) {
	if !canMapTail {
		t.Skip("the log's tail is mapped on Linux only")
	}
	path := filepath.Join(t.TempDir(), "log")
	st, err := OpenMappedFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	w, err := OpenWriter(st, Options{PageSize: 1024, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	logOps(t, w, 2)
	if st.win == nil {
		t.Fatal("the log's tail is not mapped")
	}
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Begin("after-truncate", 8); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err == nil {
		t.Fatal("commit into a truncated mapping reported success")
	}
}
