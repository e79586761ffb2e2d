package records

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"natix/internal/buffer"
	"natix/internal/pagedev"
	"natix/internal/segment"
)

func newManager(t *testing.T, pageSize int) *Manager {
	t.Helper()
	dev, err := pagedev.NewMem(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.New(dev, 128)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := segment.Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	return New(seg)
}

func TestRIDEncodeDecode(t *testing.T) {
	if err := quick.Check(func(page uint32, hi uint16, slot uint16) bool {
		r := RID{Page: pagedev.PageNo(uint64(page) | uint64(hi)<<32), Slot: slot}
		var b [RIDSize]byte
		r.Put(b[:])
		return DecodeRID(b[:]) == r
	}, nil); err != nil {
		t.Error(err)
	}
	if !NilRID.IsNil() {
		t.Error("NilRID.IsNil() = false")
	}
	if (RID{Page: 1}).IsNil() {
		t.Error("non-nil RID reported nil")
	}
}

func TestInsertReadDelete(t *testing.T) {
	m := newManager(t, 1024)
	want := []byte("hello, natix record!")
	rid, err := m.Insert(want, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(rid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Read = %q, want %q", got, want)
	}
	n, err := m.Size(rid)
	if err != nil || n != len(want) {
		t.Fatalf("Size = %d, %v", n, err)
	}
	if err := m.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(rid); err == nil {
		t.Fatal("Read after Delete succeeded")
	}
}

func TestSizeLimits(t *testing.T) {
	m := newManager(t, 1024)
	if _, err := m.Insert([]byte("tiny"), 0); !errors.Is(err, ErrTooSmall) {
		t.Fatalf("undersized insert: %v, want ErrTooSmall", err)
	}
	if _, err := m.Insert(make([]byte, m.MaxRecordSize()+1), 0); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized insert: %v, want ErrTooLarge", err)
	}
	// Exactly max fits.
	rid, err := m.Insert(make([]byte, m.MaxRecordSize()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(rid); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateInPlace(t *testing.T) {
	m := newManager(t, 1024)
	rid, _ := m.Insert(bytes.Repeat([]byte{1}, 100), 0)
	want := bytes.Repeat([]byte{2}, 120)
	if err := m.Update(rid, want); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Read(rid)
	if !bytes.Equal(got, want) {
		t.Fatal("update lost data")
	}
	// The record did not move.
	p, err := m.PageOf(rid)
	if err != nil || p != rid.Page {
		t.Fatalf("PageOf = %d, %v; want %d", p, err, rid.Page)
	}
}

func TestUpdateMovesWithForwarding(t *testing.T) {
	m := newManager(t, 1024)
	// Fill a page so the record has no room to grow in place.
	rid, err := m.Insert(bytes.Repeat([]byte{1}, 300), 0)
	if err != nil {
		t.Fatal(err)
	}
	var fillers []RID
	for {
		r, err := m.Insert(bytes.Repeat([]byte{9}, 100), rid.Page)
		if err != nil {
			t.Fatal(err)
		}
		if r.Page != rid.Page {
			// Page is full enough; drop the stray record.
			if err := m.Delete(r); err != nil {
				t.Fatal(err)
			}
			break
		}
		fillers = append(fillers, r)
	}
	// Grow the record beyond the page's remaining space.
	want := bytes.Repeat([]byte{3}, 600)
	if err := m.Update(rid, want); err != nil {
		t.Fatal(err)
	}
	// The RID is still valid and returns the new body.
	got, err := m.Read(rid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("moved record corrupted")
	}
	// It physically lives elsewhere now.
	p, err := m.PageOf(rid)
	if err != nil {
		t.Fatal(err)
	}
	if p == rid.Page {
		t.Fatal("record did not move")
	}
	// Fillers are unharmed.
	for _, r := range fillers {
		got, err := m.Read(r)
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{9}, 100)) {
			t.Fatalf("filler %s corrupted: %v", r, err)
		}
	}
	// A second move keeps the chain at one hop: update again to a size
	// that cannot return to the (still full) home page.
	want2 := bytes.Repeat([]byte{4}, 700)
	if err := m.Update(rid, want2); err != nil {
		t.Fatal(err)
	}
	got, err = m.Read(rid)
	if err != nil || !bytes.Equal(got, want2) {
		t.Fatalf("twice-moved record corrupted: %v", err)
	}
	// Shrinking updates happen wherever the body lives now.
	want3 := bytes.Repeat([]byte{5}, 50)
	if err := m.Update(rid, want3); err != nil {
		t.Fatal(err)
	}
	got, _ = m.Read(rid)
	if !bytes.Equal(got, want3) {
		t.Fatal("shrunk record corrupted")
	}
}

func TestDeleteForwardedRecordFreesBoth(t *testing.T) {
	m := newManager(t, 1024)
	rid, _ := m.Insert(bytes.Repeat([]byte{1}, 900), 0)
	// Force a move by growing close to capacity on a now-fuller page.
	if _, err := m.Insert(bytes.Repeat([]byte{2}, 80), rid.Page); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(rid, bytes.Repeat([]byte{3}, 950)); err != nil {
		t.Fatal(err)
	}
	p, _ := m.PageOf(rid)
	if p == rid.Page {
		t.Skip("record unexpectedly fit in place; layout changed")
	}
	if err := m.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(rid); err == nil {
		t.Fatal("Read after Delete of forwarded record succeeded")
	}
}

func TestPatch(t *testing.T) {
	m := newManager(t, 1024)
	rid, _ := m.Insert([]byte("0123456789"), 0)
	if err := m.Patch(rid, 3, []byte("XYZ")); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Read(rid)
	if string(got) != "012XYZ6789" {
		t.Fatalf("after patch: %q", got)
	}
	if err := m.Patch(rid, 8, []byte("LONG")); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("out-of-range patch: %v", err)
	}
	if err := m.Patch(rid, -1, []byte("a")); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("negative-offset patch: %v", err)
	}
}

func TestProximityHint(t *testing.T) {
	m := newManager(t, 2048)
	a, err := m.Insert(bytes.Repeat([]byte{1}, 100), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Insert(bytes.Repeat([]byte{2}, 100), a.Page)
	if err != nil {
		t.Fatal(err)
	}
	if b.Page != a.Page {
		t.Fatalf("hinted insert went to page %d, want %d", b.Page, a.Page)
	}
}

func TestManyRecordsAcrossPages(t *testing.T) {
	m := newManager(t, 1024)
	type rec struct {
		rid  RID
		data []byte
	}
	rng := rand.New(rand.NewSource(7))
	var recs []rec
	for i := 0; i < 200; i++ {
		n := 8 + rng.Intn(400)
		data := make([]byte, n)
		rng.Read(data)
		rid, err := m.Insert(data, 0)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		recs = append(recs, rec{rid, append([]byte(nil), data...)})
	}
	// Random updates and deletes.
	for i := 0; i < 300; i++ {
		j := rng.Intn(len(recs))
		switch rng.Intn(3) {
		case 0:
			n := 8 + rng.Intn(600)
			data := make([]byte, n)
			rng.Read(data)
			if err := m.Update(recs[j].rid, data); err != nil {
				t.Fatalf("update %s: %v", recs[j].rid, err)
			}
			recs[j].data = append([]byte(nil), data...)
		case 1:
			if err := m.Delete(recs[j].rid); err != nil {
				t.Fatalf("delete %s: %v", recs[j].rid, err)
			}
			recs[j] = recs[len(recs)-1]
			recs = recs[:len(recs)-1]
			if len(recs) == 0 {
				t.Fatal("deleted everything early")
			}
		default:
			got, err := m.Read(recs[j].rid)
			if err != nil || !bytes.Equal(got, recs[j].data) {
				t.Fatalf("read %s: %v", recs[j].rid, err)
			}
		}
	}
	// Final verification of all survivors.
	for _, r := range recs {
		got, err := m.Read(r.rid)
		if err != nil {
			t.Fatalf("final read %s: %v", r.rid, err)
		}
		if !bytes.Equal(got, r.data) {
			t.Fatalf("final read %s: corrupted", r.rid)
		}
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dev, _ := pagedev.NewMem(1024)
	pool, _ := buffer.New(dev, 16)
	seg, err := segment.Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	m := New(seg)
	want := bytes.Repeat([]byte{0x5A}, 333)
	rid, err := m.Insert(want, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Clear(); err != nil { // flush + drop: simulates restart
		t.Fatal(err)
	}

	pool2, _ := buffer.New(dev, 16)
	seg2, err := segment.Open(pool2)
	if err != nil {
		t.Fatal(err)
	}
	m2 := New(seg2)
	got, err := m2.Read(rid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("record did not survive reopen")
	}
}

func TestPageFreeBytes(t *testing.T) {
	m := newManager(t, 1024)
	rid, _ := m.Insert(bytes.Repeat([]byte{1}, 200), 0)
	free, err := m.PageFreeBytes(rid.Page)
	if err != nil {
		t.Fatal(err)
	}
	if free <= 0 || free >= 1024 {
		t.Fatalf("PageFreeBytes = %d", free)
	}
	before := free
	if _, err := m.Insert(bytes.Repeat([]byte{1}, 100), rid.Page); err != nil {
		t.Fatal(err)
	}
	after, _ := m.PageFreeBytes(rid.Page)
	if after >= before {
		t.Fatalf("free did not drop: %d -> %d", before, after)
	}
}

func TestReadErrors(t *testing.T) {
	m := newManager(t, 1024)
	rid, _ := m.Insert(bytes.Repeat([]byte{1}, 50), 0)
	// Nonexistent slot on an existing page.
	if _, err := m.Read(RID{Page: rid.Page, Slot: 99}); err == nil {
		t.Fatal("read of bogus slot succeeded")
	}
	// Nonexistent page.
	if _, err := m.Read(RID{Page: 9999, Slot: 0}); err == nil {
		t.Fatal("read of bogus page succeeded")
	}
	// Size and PageOf propagate the same errors.
	if _, err := m.Size(RID{Page: rid.Page, Slot: 99}); err == nil {
		t.Fatal("Size of bogus slot succeeded")
	}
	if _, err := m.PageOf(RID{Page: 9999, Slot: 0}); err == nil {
		t.Fatal("PageOf of bogus page succeeded")
	}
	if err := m.Delete(RID{Page: rid.Page, Slot: 99}); err == nil {
		t.Fatal("Delete of bogus slot succeeded")
	}
	if err := m.Update(RID{Page: rid.Page, Slot: 99}, bytes.Repeat([]byte{2}, 50)); err == nil {
		t.Fatal("Update of bogus slot succeeded")
	}
}

func TestUpdateSizeLimits(t *testing.T) {
	m := newManager(t, 1024)
	rid, _ := m.Insert(bytes.Repeat([]byte{1}, 50), 0)
	if err := m.Update(rid, []byte("xx")); !errors.Is(err, ErrTooSmall) {
		t.Fatalf("undersized update: %v", err)
	}
	if err := m.Update(rid, make([]byte, m.MaxRecordSize()+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized update: %v", err)
	}
	// Record untouched by failed updates.
	got, _ := m.Read(rid)
	if !bytes.Equal(got, bytes.Repeat([]byte{1}, 50)) {
		t.Fatal("failed update clobbered record")
	}
}

func TestTouchForwarded(t *testing.T) {
	m := newManager(t, 1024)
	rid, _ := m.Insert(bytes.Repeat([]byte{1}, 900), 0)
	if _, err := m.Insert(bytes.Repeat([]byte{2}, 80), rid.Page); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(rid, bytes.Repeat([]byte{3}, 950)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Touch(rid); err != nil {
		t.Fatalf("Touch on forwarded record: %v", err)
	}
}
