package wal

import (
	"bytes"
	"errors"
	"testing"

	"natix/internal/pagedev"
)

func TestWriterAppendScanRoundTrip(t *testing.T) {
	st := NewMemStorage()
	w, err := OpenWriter(st, Options{PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	begin, err := w.Begin("import:doc", 3)
	if err != nil {
		t.Fatal(err)
	}
	if begin == 0 {
		t.Fatal("begin LSN must be nonzero")
	}
	img := bytes.Repeat([]byte{0xCD}, 4096)
	if _, err := w.AppendImage(7, img); err != nil {
		t.Fatal(err)
	}
	ranges := []Range{
		{Off: 10, Before: []byte{1, 2}, After: []byte{3, 4}},
		{Off: 100, Before: []byte{5}, After: []byte{6}},
	}
	if _, err := w.AppendUpdate(2, ranges); err != nil {
		t.Fatal(err)
	}
	snap := bytes.Repeat([]byte{0x11}, 4096)
	if _, err := w.AppendFirstUpdate(1, snap, ranges[:1]); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	var got []Record
	_, end, err := Scan(st, func(r Record) error {
		// Copy: decode aliases the scan buffer per record.
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if end != w.End() {
		t.Fatalf("scan end %d != writer end %d", end, w.End())
	}
	types := []uint8{RecBegin, RecImage, RecUpdate, RecFirstUpdate, RecCommit}
	if len(got) != len(types) {
		t.Fatalf("scanned %d records, want %d", len(got), len(types))
	}
	for i, r := range got {
		if r.Type != types[i] {
			t.Fatalf("record %d type %s, want %s", i, TypeName(r.Type), TypeName(types[i]))
		}
	}
	if got[0].Kind != "import:doc" || got[0].PreNumPages != 3 {
		t.Fatalf("begin decoded as %+v", got[0])
	}
	if got[1].Page != 7 || !bytes.Equal(got[1].Image, img) {
		t.Fatal("image record mismatch")
	}
	if got[2].Page != 2 || len(got[2].Ranges) != 2 ||
		got[2].Ranges[0].Off != 10 ||
		!bytes.Equal(got[2].Ranges[0].After, []byte{3, 4}) ||
		!bytes.Equal(got[2].Ranges[1].Before, []byte{5}) {
		t.Fatalf("update record mismatch: %+v", got[2].Ranges)
	}
	if !bytes.Equal(got[3].BeforeImage, snap) {
		t.Fatal("first-update before-image mismatch")
	}
}

func TestWriterReadBack(t *testing.T) {
	st := NewMemStorage()
	w, err := OpenWriter(st, Options{PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	begin, _ := w.Begin("op", 1)
	var lsns []LSN
	for i := 0; i < 50; i++ {
		lsn, err := w.AppendUpdate(pagedev.PageNo(i), []Range{{Off: i, Before: []byte{byte(i)}, After: []byte{byte(i + 1)}}})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	// Half buffered, half flushed: force a partial flush boundary.
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 50; i < 60; i++ {
		lsn, err := w.AppendUpdate(pagedev.PageNo(i), []Range{{Off: i, Before: []byte{byte(i)}, After: []byte{byte(i + 1)}}})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	all, err := w.RecordLSNsSince(begin)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 61 { // begin + 60 updates
		t.Fatalf("RecordLSNsSince returned %d records, want 61", len(all))
	}
	for i, lsn := range lsns {
		rec, err := w.ReadRecord(lsn)
		if err != nil {
			t.Fatalf("ReadRecord(%d): %v", lsn, err)
		}
		if rec.Type != RecUpdate || rec.Page != pagedev.PageNo(i) || rec.Ranges[0].Off != i {
			t.Fatalf("record %d decoded as %+v", i, rec)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestWriterSingleOperationRule(t *testing.T) {
	st := NewMemStorage()
	w, _ := OpenWriter(st, Options{PageSize: 4096})
	if err := w.Commit(); !errors.Is(err, ErrNoOp) {
		t.Fatalf("commit without begin: %v", err)
	}
	if _, err := w.Begin("a", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Begin("b", 0); !errors.Is(err, ErrInOp) {
		t.Fatalf("nested begin: %v", err)
	}
	if err := w.Checkpoint(1); err == nil {
		t.Fatal("checkpoint inside an operation must fail")
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestBeginOnWritesTheJoinedLabel: an operation begun with its label in
// two parts logs the record Begin writes for the joined string, byte for
// byte, and reads back with the whole label as its kind.
func TestBeginOnWritesTheJoinedLabel(t *testing.T) {
	logOf := func(begin func(w *Writer) (LSN, error)) []byte {
		st := NewMemStorage()
		w, err := OpenWriter(st, Options{PageSize: 4096})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := begin(w); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		return st.Snapshot()
	}
	joined := logOf(func(w *Writer) (LSN, error) { return w.Begin("mutate:play07", 12) })
	parts := logOf(func(w *Writer) (LSN, error) { return w.BeginOn("mutate:", "play07", 12) })
	if !bytes.Equal(joined, parts) {
		t.Fatal("BeginOn(kind, subject) and Begin(kind+subject) log different bytes")
	}
	var kinds []string
	if _, _, err := Scan(NewMemStorageFrom(parts), func(r Record) error {
		if r.Type == RecBegin {
			kinds = append(kinds, r.Kind+"|"+r.Subject)
		}
		return nil
	}); err != nil || len(kinds) != 1 || kinds[0] != "mutate:play07|" {
		t.Fatalf("begin records read back as %q (err %v)", kinds, err)
	}
}

func TestCheckpointTruncatesAndKeepsLSNsMonotonic(t *testing.T) {
	st := NewMemStorage()
	w, _ := OpenWriter(st, Options{PageSize: 4096})
	w.Begin("op", 0)
	w.AppendUpdate(1, []Range{{Off: 0, Before: []byte{0}, After: []byte{1}}})
	w.Commit()
	before := w.End()
	if err := w.Checkpoint(5); err != nil {
		t.Fatal(err)
	}
	if w.Size() != headerSize {
		t.Fatalf("log size %d after checkpoint, want %d", w.Size(), headerSize)
	}
	after := w.End()
	if after < before {
		t.Fatalf("LSN went backwards across checkpoint: %d -> %d", before, after)
	}
	// A fresh record lands above every pre-checkpoint LSN.
	w.Begin("op2", 0)
	lsn, _ := w.AppendUpdate(2, []Range{{Off: 0, Before: []byte{1}, After: []byte{2}}})
	if lsn < before {
		t.Fatalf("post-checkpoint LSN %d below pre-checkpoint end %d", lsn, before)
	}
	w.Commit()
}

func TestScanStopsAtTornTail(t *testing.T) {
	st := NewMemStorage()
	w, _ := OpenWriter(st, Options{PageSize: 4096})
	w.Begin("op", 0)
	w.AppendUpdate(1, []Range{{Off: 0, Before: []byte{0}, After: []byte{1}}})
	w.Commit()
	w.Begin("op2", 0)
	w.AppendUpdate(2, []Range{{Off: 0, Before: []byte{1}, After: []byte{2}}})
	w.Sync()

	full := st.Snapshot()
	// Count full records.
	n := 0
	if _, _, err := Scan(st, func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("full log has %d records, want 5", n)
	}
	// Tear the tail at every byte boundary: the scan must never error,
	// and must never return more records than the tear allows.
	for cut := headerSize; cut < len(full); cut++ {
		torn := NewMemStorageFrom(full[:cut])
		got := 0
		if _, _, err := Scan(torn, func(Record) error { got++; return nil }); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got > n {
			t.Fatalf("cut %d: %d records from a shorter log", cut, got)
		}
	}
	// Corrupt one payload byte mid-log: scan stops before that record.
	bad := append([]byte(nil), full...)
	bad[headerSize+frameSize+2] ^= 0xFF
	got := 0
	if _, _, err := Scan(NewMemStorageFrom(bad), func(Record) error { got++; return nil }); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("corrupt first record: scanned %d records, want 0", got)
	}
}

func TestNoSyncSkipsBarriers(t *testing.T) {
	st := NewMemStorage()
	w, _ := OpenWriter(st, Options{PageSize: 4096, NoSync: true})
	w.Begin("op", 0)
	w.AppendUpdate(1, []Range{{Off: 0, Before: []byte{0}, After: []byte{1}}})
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if s := w.Stats(); s.Syncs != 0 {
		t.Fatalf("NoSync writer issued %d syncs", s.Syncs)
	}
	// Records still reach storage.
	n := 0
	Scan(st, func(Record) error { n++; return nil })
	if n != 3 {
		t.Fatalf("NoSync log has %d records, want 3", n)
	}
}

// TestFlushToCoversRecordAtSyncedBoundary: SyncedLSN is the end of the
// durable prefix, and a record's LSN is its start, so the first record
// appended after a sync has LSN == SyncedLSN and is not durable yet.
// FlushTo of that LSN — what the buffer pool asks before writing back a
// page that record covers — must make it durable.
func TestFlushToCoversRecordAtSyncedBoundary(t *testing.T) {
	st := NewMemStorage()
	w, err := OpenWriter(st, Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Begin("test", 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	lsn, err := w.AppendImage(3, make([]byte, 512))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != w.SyncedLSN() {
		t.Fatalf("test premise: record at %d, synced through %d", lsn, w.SyncedLSN())
	}
	if err := w.FlushTo(lsn); err != nil {
		t.Fatal(err)
	}
	if got := w.SyncedLSN(); got <= lsn {
		t.Fatalf("FlushTo(%d) left the log synced through %d: the record is not durable", lsn, got)
	}
}
