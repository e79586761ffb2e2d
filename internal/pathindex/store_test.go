package pathindex

import (
	"errors"
	"testing"

	"natix/internal/buffer"
	"natix/internal/pagedev"
	"natix/internal/records"
	"natix/internal/segment"
)

func newRM(t *testing.T) *records.Manager {
	t.Helper()
	dev, err := pagedev.NewMem(512)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.New(dev, 64)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := segment.Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	return records.New(seg)
}

// TestCorruptSummaryDoesNotWedge checks that a damaged summary blob
// still lets Drop (and therefore document Delete/Convert/reindex)
// clear the index, leaking rather than wedging.
func TestCorruptSummaryDoesNotWedge(t *testing.T) {
	rm := newRM(t)
	s, err := Open(rm)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := sampleIndex()
	if err := s.Put("d", x, nil); err != nil {
		t.Fatal(err)
	}

	// Flip the version field of the stored summary in place.
	id := s.view.Load().entries["d"]
	body, err := s.blobs.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	body[4] ^= 0xFF
	newID, err := s.blobs.Overwrite(id, body)
	if err != nil {
		t.Fatal(err)
	}
	setEntry(s, "d", newID)
	s.InvalidateCache()

	if _, err := s.Get("d"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get on corrupt summary = %v, want ErrCorrupt", err)
	}
	if err := s.Drop("d"); err != nil {
		t.Fatalf("Drop on corrupt summary failed: %v", err)
	}
	if s.Has("d") {
		t.Fatal("entry survived Drop")
	}
	// A fresh Put under the same name must succeed (the repair path).
	if err := s.Put("d", x, nil); err != nil {
		t.Fatalf("Put after corrupt Drop failed: %v", err)
	}
	h, err := s.Get("d")
	if err != nil || h == nil {
		t.Fatalf("Get after repair = %v, %v", h, err)
	}
}

// setEntry points name's catalog entry at the summary blob id, as Put
// does, without writing the catalog.
func setEntry(s *Store, name string, id records.RID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.editView(func(v *catalogView) { v.entries[name] = id })
}
