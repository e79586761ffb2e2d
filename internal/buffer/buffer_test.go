package buffer

import (
	"errors"
	"testing"
	"time"

	"natix/internal/pagedev"
	"natix/internal/pageformat"
	"natix/internal/wal"
)

func newPool(t *testing.T, pageSize, frames, pages int) (*Pool, *pagedev.Mem) {
	t.Helper()
	dev, err := pagedev.NewMem(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Grow(pagedev.PageNo(pages)); err != nil {
		t.Fatal(err)
	}
	p, err := New(dev, frames)
	if err != nil {
		t.Fatal(err)
	}
	return p, dev
}

// format stamps a valid slotted page into the frame so checksum logic has
// a typed page to work with.
func format(f *Frame, payload byte) {
	s := pageformat.FormatSlotted(f.Data())
	s.Insert([]byte{payload})
	f.MarkDirty()
}

func TestGetNewAndReadBack(t *testing.T) {
	p, _ := newPool(t, 1024, 4, 8)
	f, err := p.GetNew(3)
	if err != nil {
		t.Fatal(err)
	}
	format(f, 0x42)
	f.Release()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}

	g, err := p.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	s, err := pageformat.AsSlotted(g.Data())
	if err != nil {
		t.Fatal(err)
	}
	cell, err := s.Cell(0)
	if err != nil || cell[0] != 0x42 {
		t.Fatalf("cell = %v, %v", cell, err)
	}
}

func TestHitAvoidsPhysicalRead(t *testing.T) {
	p, _ := newPool(t, 1024, 4, 8)
	f, _ := p.GetNew(0)
	format(f, 1)
	f.Release()
	p.FlushAll()
	p.ResetStats()

	for i := 0; i < 5; i++ {
		g, err := p.Get(0)
		if err != nil {
			t.Fatal(err)
		}
		g.Release()
	}
	st := p.Stats()
	if st.LogicalReads != 5 {
		t.Fatalf("LogicalReads = %d, want 5", st.LogicalReads)
	}
	if st.Hits != 5 {
		t.Fatalf("Hits = %d, want 5 (page was already cached)", st.Hits)
	}
	if st.PhysReads != 0 {
		t.Fatalf("PhysReads = %d, want 0", st.PhysReads)
	}
}

func TestEvictionWritesBackDirtyLRU(t *testing.T) {
	p, dev := newPool(t, 1024, 2, 8)
	// Fill both frames with dirty pages.
	for pn := pagedev.PageNo(0); pn < 2; pn++ {
		f, _ := p.GetNew(pn)
		format(f, byte(pn))
		f.Release()
	}
	p.ResetStats()
	// Getting a third page must evict page 0 (LRU) and write it back.
	f, err := p.GetNew(2)
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	st := p.Stats()
	if st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
	if st.PhysWrites != 1 {
		t.Fatalf("PhysWrites = %d, want 1", st.PhysWrites)
	}
	// The written page is intact on the device (checksummed).
	buf := make([]byte, 1024)
	if err := dev.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := pageformat.VerifyChecksum(buf); err != nil {
		t.Fatalf("evicted page checksum: %v", err)
	}
	if p.Cached() != 2 {
		t.Fatalf("Cached = %d, want 2", p.Cached())
	}
}

func TestLRUOrder(t *testing.T) {
	p, _ := newPool(t, 1024, 2, 8)
	a, _ := p.GetNew(0)
	format(a, 0)
	a.Release()
	b, _ := p.GetNew(1)
	format(b, 1)
	b.Release()
	// Touch page 0 so page 1 becomes LRU.
	if err := p.Touch(0); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()
	c, _ := p.GetNew(2) // must evict page 1
	c.Release()
	// Page 0 should still be cached: re-get is a hit.
	g, err := p.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	g.Release()
	st := p.Stats()
	if st.PhysReads != 0 {
		t.Fatalf("page 0 was evicted (PhysReads = %d), want page 1 evicted", st.PhysReads)
	}
}

func TestAllPinnedFails(t *testing.T) {
	p, _ := newPool(t, 1024, 2, 8)
	a, _ := p.GetNew(0)
	b, _ := p.GetNew(1)
	if _, err := p.GetNew(2); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("err = %v, want ErrPoolFull", err)
	}
	a.Release()
	if _, err := p.GetNew(2); err != nil {
		t.Fatalf("after releasing one frame: %v", err)
	}
	b.Release()
}

func TestPinCounting(t *testing.T) {
	p, _ := newPool(t, 1024, 2, 8)
	f1, _ := p.GetNew(0)
	f2, err := p.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatal("same page produced two frames")
	}
	f1.Release()
	// Still pinned once: Clear must refuse.
	if err := p.Clear(); !errors.Is(err, ErrPinned) {
		t.Fatalf("Clear with pinned frame: %v, want ErrPinned", err)
	}
	f2.Release()
	if err := p.Clear(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	p, _ := newPool(t, 1024, 2, 8)
	f, _ := p.GetNew(0)
	f.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	f.Release()
}

func TestClearFlushesAndDrops(t *testing.T) {
	p, dev := newPool(t, 1024, 4, 8)
	f, _ := p.GetNew(5)
	format(f, 7)
	f.Release()
	if err := p.Clear(); err != nil {
		t.Fatal(err)
	}
	if p.Cached() != 0 {
		t.Fatalf("Cached = %d after Clear", p.Cached())
	}
	// Data reached the device.
	buf := make([]byte, 1024)
	if err := dev.Read(5, buf); err != nil {
		t.Fatal(err)
	}
	s, err := pageformat.AsSlotted(buf)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := s.Cell(0)
	if err != nil || cell[0] != 7 {
		t.Fatalf("cell after clear = %v, %v", cell, err)
	}
	// Next Get is a physical read.
	p.ResetStats()
	g, err := p.Get(5)
	if err != nil {
		t.Fatal(err)
	}
	g.Release()
	if st := p.Stats(); st.PhysReads != 1 {
		t.Fatalf("PhysReads after Clear = %d, want 1", st.PhysReads)
	}
}

func TestChecksumVerificationDetectsCorruption(t *testing.T) {
	p, dev := newPool(t, 1024, 2, 8)
	f, _ := p.GetNew(1)
	format(f, 9)
	f.Release()
	p.Clear()

	// Corrupt the page behind the pool's back.
	buf := make([]byte, 1024)
	dev.Read(1, buf)
	buf[200] ^= 0xFF
	dev.Write(1, buf)

	if _, err := p.Get(1); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("Get on corrupted page: %v, want ErrCorrupted", err)
	}
	// With verification off it loads.
	p.SetVerifyChecksums(false)
	g, err := p.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	g.Release()
}

func TestNewSized(t *testing.T) {
	dev, _ := pagedev.NewMem(2048)
	p, err := NewSized(dev, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	if p.Capacity() != 1024 {
		t.Fatalf("Capacity = %d, want 1024 (2MB / 2K)", p.Capacity())
	}
	// Degenerate size still yields one frame.
	p2, err := NewSized(dev, 100)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Capacity() != 1 {
		t.Fatalf("Capacity = %d, want 1", p2.Capacity())
	}
	if _, err := New(dev, 0); !errors.Is(err, ErrNoFrames) {
		t.Fatalf("New(dev, 0): %v", err)
	}
}

func TestManyPagesChurn(t *testing.T) {
	const pages = 64
	p, _ := newPool(t, 1024, 8, pages)
	// Write all pages through an 8-frame pool, then read them all back.
	for pn := pagedev.PageNo(0); pn < pages; pn++ {
		f, err := p.GetNew(pn)
		if err != nil {
			t.Fatal(err)
		}
		format(f, byte(pn))
		f.Release()
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for pn := pagedev.PageNo(0); pn < pages; pn++ {
		f, err := p.Get(pn)
		if err != nil {
			t.Fatalf("Get(%d): %v", pn, err)
		}
		s, err := pageformat.AsSlotted(f.Data())
		if err != nil {
			t.Fatalf("page %d: %v", pn, err)
		}
		cell, err := s.Cell(0)
		if err != nil || cell[0] != byte(pn) {
			t.Fatalf("page %d cell = %v, %v", pn, cell, err)
		}
		f.Release()
	}
}

func TestFlushAllElevatorOrder(t *testing.T) {
	// Dirty pages in a scrambled order; the flush must hit the device in
	// ascending page order so the simulated disk sees an elevator pass.
	mem, _ := pagedev.NewMem(1024)
	sim := pagedev.NewSimDisk(mem, pagedev.DCAS34330W)
	p, err := New(sim, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Grow(32); err != nil {
		t.Fatal(err)
	}
	for _, pn := range []pagedev.PageNo{17, 3, 29, 11, 23, 5} {
		f, err := p.GetNew(pn)
		if err != nil {
			t.Fatal(err)
		}
		format(f, byte(pn))
		f.Release()
	}
	sim.ResetStats()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	st := sim.Stats()
	if st.Writes != 6 {
		t.Fatalf("writes = %d, want 6", st.Writes)
	}
	// An ascending pass over 6 pages in 32 must be far cheaper than 6
	// average-seek accesses (~14ms each on the modeled drive).
	if st.Elapsed > 60*time.Millisecond {
		t.Fatalf("elevator flush cost %v, expected well under 60ms", st.Elapsed)
	}
}

// rangeCountingDev wraps Mem and counts vectored vs single-page writes.
type rangeCountingDev struct {
	*pagedev.Mem
	rangeWrites  int
	rangePages   int
	singleWrites int
}

func (d *rangeCountingDev) Write(p pagedev.PageNo, buf []byte) error {
	d.singleWrites++
	return d.Mem.Write(p, buf)
}

func (d *rangeCountingDev) WriteRange(p pagedev.PageNo, buf []byte) error {
	d.rangeWrites++
	d.rangePages += len(buf) / d.PageSize()
	return d.Mem.WriteRange(p, buf)
}

func TestFlushAllCoalescesAdjacentPages(t *testing.T) {
	mem, err := pagedev.NewMem(1024)
	if err != nil {
		t.Fatal(err)
	}
	dev := &rangeCountingDev{Mem: mem}
	p, err := New(dev, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Grow(32); err != nil {
		t.Fatal(err)
	}
	// Two adjacent runs (0..5, 10..12) and one isolated page (20),
	// dirtied out of order.
	dirty := []pagedev.PageNo{10, 3, 20, 0, 5, 11, 1, 4, 12, 2}
	for _, pn := range dirty {
		f, err := p.GetNew(pn)
		if err != nil {
			t.Fatal(err)
		}
		format(f, byte(pn))
		f.Release()
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if dev.rangeWrites != 2 {
		t.Fatalf("rangeWrites = %d, want 2 (runs 0..5 and 10..12)", dev.rangeWrites)
	}
	if dev.rangePages != 9 {
		t.Fatalf("rangePages = %d, want 9", dev.rangePages)
	}
	if dev.singleWrites != 1 {
		t.Fatalf("singleWrites = %d, want 1 (page 20)", dev.singleWrites)
	}
	if st := p.Stats(); st.CoalescedWriteRuns != 2 {
		t.Fatalf("CoalescedWriteRuns = %d, want 2", st.CoalescedWriteRuns)
	}
	if st := p.Stats(); st.PhysWrites != 10 {
		t.Fatalf("PhysWrites = %d, want 10", st.PhysWrites)
	}
	// Every flushed page must verify on the device.
	buf := make([]byte, 1024)
	for _, pn := range dirty {
		if err := mem.Read(pn, buf); err != nil {
			t.Fatal(err)
		}
		if err := pageformat.VerifyChecksum(buf); err != nil {
			t.Fatalf("page %d after coalesced flush: %v", pn, err)
		}
		s, err := pageformat.AsSlotted(buf)
		if err != nil {
			t.Fatal(err)
		}
		cell, err := s.Cell(0)
		if err != nil || cell[0] != byte(pn) {
			t.Fatalf("page %d cell = %v, %v", pn, cell, err)
		}
	}
}

// TestSelectiveEvictionUnderWAL pins the clock's selective first pass:
// under a log, a dirty frame whose records are not yet durable is passed
// over while a clean frame can be evicted, so a miss does not force a
// log sync. Once the log is synced, the dirty frames are victims like
// any other and write back their own bytes.
func TestSelectiveEvictionUnderWAL(t *testing.T) {
	dev, _ := pagedev.NewMem(1024)
	pool, err := New(dev, 4)
	if err != nil {
		t.Fatal(err)
	}
	w, err := wal.OpenWriter(wal.NewMemStorage(), wal.Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	pool.AttachWAL(w)
	if _, err := w.Begin("test", 0); err != nil {
		t.Fatal(err)
	}
	dev.Grow(16)

	// Two clean frames (written back, still resident) and two dirty
	// logged frames whose records are not yet synced.
	mutate := func(pn pagedev.PageNo) {
		t.Helper()
		f, err := pool.GetNew(pn)
		if err != nil {
			t.Fatal(err)
		}
		f.Latch()
		u := f.BeginUpdate()
		pageformat.FormatSlotted(f.Data()).Insert([]byte{byte(pn)})
		if err := f.EndUpdate(u); err != nil {
			t.Fatal(err)
		}
		f.Unlatch()
		f.Release()
	}
	get := func(pn pagedev.PageNo) {
		t.Helper()
		f, err := pool.Get(pn)
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	mutate(0)
	mutate(1)
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Hits set the clean frames' reference bits, so a clock blind to
	// the log would pass over them and take page 2 first.
	get(0)
	get(1)
	mutate(2)
	mutate(3)
	if w.SyncedLSN() >= w.End() {
		t.Fatal("test premise: pages 2 and 3 must have unsynced log records")
	}

	// Under pressure the selective pass takes a clean victim (0 or 1)
	// and neither syncs the log nor writes a page.
	synced, before := w.SyncedLSN(), pool.Stats()
	get(8)
	after := pool.Stats()
	if w.SyncedLSN() != synced {
		t.Fatal("eviction forced a log sync despite clean victims being available")
	}
	if after.Evictions != before.Evictions+1 || after.PhysWrites != before.PhysWrites {
		t.Fatalf("evictions %d -> %d, writes %d -> %d: want one clean eviction",
			before.Evictions, after.Evictions, before.PhysWrites, after.PhysWrites)
	}
	if pool.Resident(0) && pool.Resident(1) {
		t.Fatal("neither clean frame was evicted")
	}
	if !pool.Resident(2) || !pool.Resident(3) {
		t.Fatal("a dirty frame with unsynced log records was evicted")
	}

	// Once the log is durable, further misses evict the dirty frames,
	// writing them back.
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	for pn := pagedev.PageNo(9); pool.Resident(2) || pool.Resident(3); pn++ {
		if pn == 16 {
			t.Fatal("pages 2 and 3 were never evicted after the log sync")
		}
		get(pn)
	}
	if st := pool.Stats(); st.PhysWrites < after.PhysWrites+2 {
		t.Fatalf("writes %d -> %d: pages 2 and 3 not written back", after.PhysWrites, st.PhysWrites)
	}
	// Reloading page 2 from the device gives its own cell.
	g, err := pool.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := pageformat.AsSlotted(g.Data())
	if err != nil {
		t.Fatal(err)
	}
	if cell, err := s.Cell(0); err != nil || cell[0] != 2 {
		t.Fatalf("page 2 after write-back: cell %v, %v", cell, err)
	}
	g.Release()
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}
