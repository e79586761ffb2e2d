package buffer

import (
	"bytes"
	"testing"

	"natix/internal/pagedev"
	"natix/internal/wal"
)

func TestDiffRanges(t *testing.T) {
	old := make([]byte, 256)
	new := make([]byte, 256)
	if got := diffRanges(nil, old, new, 0); got != nil {
		t.Fatalf("identical pages diff to %v", got)
	}
	// Two distant runs stay separate; two close runs merge.
	new[10] = 1
	new[12] = 2
	new[200] = 3
	got := diffRanges(nil, old, new, 0)
	if len(got) != 2 {
		t.Fatalf("got %d ranges, want 2: %+v", len(got), got)
	}
	if got[0].Off != 10 || len(got[0].Before) != 3 {
		t.Fatalf("first range %+v, want off 10 len 3", got[0])
	}
	if got[1].Off != 200 || len(got[1].Before) != 1 {
		t.Fatalf("second range %+v", got[1])
	}
	// Applying After onto old reproduces new; Before onto new restores old.
	redo := append([]byte(nil), old...)
	undo := append([]byte(nil), new...)
	for _, r := range got {
		copy(redo[r.Off:], r.After)
		copy(undo[r.Off:], r.Before)
	}
	if !bytes.Equal(redo, new) || !bytes.Equal(undo, old) {
		t.Fatal("ranges do not round-trip")
	}
}

func TestDiffRangesCollapse(t *testing.T) {
	old := make([]byte, 4096)
	new := make([]byte, 4096)
	for i := 0; i < 4096; i += 40 {
		new[i] = byte(i)
	}
	got := diffRanges(nil, old, new, 0)
	if len(got) > maxRanges {
		t.Fatalf("%d ranges, want collapse at %d", len(got), maxRanges)
	}
	redo := append([]byte(nil), old...)
	for _, r := range got {
		copy(redo[r.Off:], r.After)
	}
	if !bytes.Equal(redo, new) {
		t.Fatal("collapsed ranges do not reproduce the page")
	}
}

func TestEndUpdateLogsAndStamps(t *testing.T) {
	dev, _ := pagedev.NewMem(512)
	pool, err := New(dev, 4)
	if err != nil {
		t.Fatal(err)
	}
	st := wal.NewMemStorage()
	w, err := wal.OpenWriter(st, wal.Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	pool.AttachWAL(w)
	if _, err := w.Begin("test", 0); err != nil {
		t.Fatal(err)
	}

	dev.Grow(1)
	f, err := pool.GetNew(0)
	if err != nil {
		t.Fatal(err)
	}
	f.Latch()
	u := f.BeginUpdate()
	f.Data()[100] = 0xAA
	if err := f.EndUpdate(u); err != nil {
		t.Fatal(err)
	}
	lsn1 := f.pageLSN.Load()
	if lsn1 == 0 {
		t.Fatal("fresh page update did not stamp an LSN")
	}

	// Second update on the same (no longer fresh) frame.
	u = f.BeginUpdate()
	f.Data()[101] = 0xBB
	if err := f.EndUpdate(u); err != nil {
		t.Fatal(err)
	}
	if f.pageLSN.Load() <= lsn1 {
		t.Fatal("page LSN must advance")
	}

	// A no-op mutation logs nothing.
	before := w.End()
	u = f.BeginUpdate()
	if err := f.EndUpdate(u); err != nil {
		t.Fatal(err)
	}
	if w.End() != before {
		t.Fatal("no-op update appended a record")
	}
	f.Unlatch()
	f.Release()
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	// The record stream: begin, image (fresh first write), update, commit.
	var types []string
	_, _, err = wal.Scan(st, func(r wal.Record) error {
		types = append(types, wal.TypeName(r.Type))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"begin", "image", "update", "commit"}
	if len(types) != len(want) {
		t.Fatalf("records %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("records %v, want %v", types, want)
		}
	}
}

func TestWriteBackWaitsForLog(t *testing.T) {
	// A dirty logged frame evicted under memory pressure must push the
	// log out first: after the eviction, the log storage contains the
	// frame's records even though no commit happened.
	dev, _ := pagedev.NewMem(512)
	pool, _ := New(dev, 1) // single frame: second Get evicts the first
	st := wal.NewMemStorage()
	w, _ := wal.OpenWriter(st, wal.Options{PageSize: 512})
	pool.AttachWAL(w)
	w.Begin("test", 0)

	dev.Grow(2)
	f, _ := pool.GetNew(0)
	f.Latch()
	u := f.BeginUpdate()
	f.Data()[50] = 0x77
	if err := f.EndUpdate(u); err != nil {
		t.Fatal(err)
	}
	f.Unlatch()
	f.Release()

	logged, _ := st.Size()
	if logged > 32 {
		t.Fatalf("log flushed before any write-back: %d bytes", logged)
	}
	g, err := pool.GetNew(1) // evicts frame 0, which is dirty
	if err != nil {
		t.Fatal(err)
	}
	g.Release()
	logged, _ = st.Size()
	if logged <= 32 {
		t.Fatal("write-back did not flush the log first (WAL rule)")
	}
	w.Commit()
}
