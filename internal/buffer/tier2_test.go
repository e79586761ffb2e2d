package buffer

import (
	"testing"

	"natix/internal/compress"
	"natix/internal/pagedev"
	"natix/internal/pageformat"
	"natix/internal/wal"
)

func newTierPool(t *testing.T, pageSize, frames, pages int) (*Pool, *pagedev.Mem) {
	t.Helper()
	p, dev := newPool(t, pageSize, frames, pages)
	p.EnableCompressedCache(1<<20, compress.NewFlate(compress.DefaultLevel))
	return p, dev
}

func TestTier2ServesEvictedPage(t *testing.T) {
	// Single-frame pool: every Get evicts the previous page. The dirty
	// victim is written back and admitted to tier-2; re-getting it must
	// hit the tier, not the device.
	p, _ := newTierPool(t, 1024, 1, 8)
	f, _ := p.GetNew(0)
	format(f, 0x5A)
	f.Release()
	g, err := p.GetNew(1) // evicts page 0 (dirty write-back, admissible)
	if err != nil {
		t.Fatal(err)
	}
	format(g, 0x5B)
	g.Release()
	p.ResetStats()

	h, err := p.Get(0) // evicts page 1, then loads page 0 from tier-2
	if err != nil {
		t.Fatal(err)
	}
	s, err := pageformat.AsSlotted(h.Data())
	if err != nil {
		t.Fatal(err)
	}
	cell, err := s.Cell(0)
	if err != nil || cell[0] != 0x5A {
		t.Fatalf("cell = %v, %v", cell, err)
	}
	h.Release()
	st := p.Stats()
	if st.Tier2Hits != 1 {
		t.Fatalf("Tier2Hits = %d, want 1", st.Tier2Hits)
	}
	if st.PhysReads != 0 {
		t.Fatalf("PhysReads = %d, want 0 (served from tier-2)", st.PhysReads)
	}
}

func TestTier2FreshNeverWrittenPageNotAdmitted(t *testing.T) {
	// A GetNew frame that was never dirtied holds bytes the device does
	// not: evicting it must not seed tier-2 with phantom content.
	p, dev := newTierPool(t, 1024, 1, 8)
	// Put real content on device page 0 behind the pool's back.
	img := make([]byte, 1024)
	s := pageformat.FormatSlotted(img)
	s.Insert([]byte{0x77})
	pageformat.UpdateChecksum(img)
	if err := dev.Write(0, img); err != nil {
		t.Fatal(err)
	}

	f, err := p.GetNew(0) // fresh frame: zeroes, never dirtied
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	g, err := p.Get(1) // evicts the fresh frame
	if err != nil {
		t.Fatal(err)
	}
	g.Release()
	if p.t2.contains(0) {
		t.Fatal("fresh never-dirtied frame was admitted to tier-2")
	}
	// The device copy is what a re-get must see.
	h, err := p.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := pageformat.AsSlotted(h.Data())
	if err != nil {
		t.Fatal(err)
	}
	cell, err := sl.Cell(0)
	if err != nil || cell[0] != 0x77 {
		t.Fatalf("cell = %v, %v (want the device copy)", cell, err)
	}
	h.Release()
}

func TestTier2CorruptEntryNeverServed(t *testing.T) {
	// A bit flipped while the image sat in tier-2 must be detected (the
	// CRC-after-decompress re-verification) and the load must fall back
	// to the device copy.
	p, _ := newTierPool(t, 1024, 1, 8)
	f, _ := p.GetNew(0)
	format(f, 0x33)
	f.Release()
	g, _ := p.GetNew(1) // evicts + admits page 0
	format(g, 0x34)
	g.Release()

	p.t2.mu.Lock()
	e := p.t2.entries[0]
	if e == nil {
		p.t2.mu.Unlock()
		t.Fatal("page 0 not admitted")
	}
	e.data[len(e.data)/2] ^= 0xFF
	p.t2.mu.Unlock()

	p.ResetStats()
	h, err := p.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := pageformat.AsSlotted(h.Data())
	if err != nil {
		t.Fatal(err)
	}
	cell, err := s.Cell(0)
	if err != nil || cell[0] != 0x33 {
		t.Fatalf("cell = %v, %v (want the device copy)", cell, err)
	}
	h.Release()
	st := p.Stats()
	if st.Tier2Hits != 0 {
		t.Fatalf("Tier2Hits = %d, want 0 (corrupt entry must not count as a hit)", st.Tier2Hits)
	}
	if st.PhysReads != 1 {
		t.Fatalf("PhysReads = %d, want 1 (fallback to device)", st.PhysReads)
	}
}

func TestTier2Invalidation(t *testing.T) {
	p, _ := newTierPool(t, 1024, 1, 16)
	admit := func(pn pagedev.PageNo) {
		t.Helper()
		f, err := p.GetNew(pn)
		if err != nil {
			t.Fatal(err)
		}
		format(f, byte(pn))
		f.Release()
		// Evict it by pulling another page through the single frame.
		g, err := p.GetNew(pn + 8)
		if err != nil {
			t.Fatal(err)
		}
		format(g, 0xEE)
		g.Release()
		if !p.t2.contains(pn) {
			t.Fatalf("page %d not admitted", pn)
		}
	}

	// Restore (scrubber repair) rewrites the device copy: the cached
	// image is stale and must drop.
	admit(1)
	img := make([]byte, 1024)
	s := pageformat.FormatSlotted(img)
	s.Insert([]byte{0x11})
	pageformat.UpdateChecksum(img)
	if err := p.Restore(1, img); err != nil {
		t.Fatal(err)
	}
	if p.t2.contains(1) {
		t.Fatal("Restore left a stale tier-2 entry")
	}

	// GetNew reallocates the page: cached old content must drop.
	admit(2)
	f, err := p.GetNew(2)
	if err != nil {
		t.Fatal(err)
	}
	format(f, 0x22)
	f.Release()
	if p.t2.contains(2) {
		t.Fatal("GetNew left a stale tier-2 entry")
	}

	// Clear resets the whole tier (cold measurements start cold).
	admit(3)
	if err := p.Clear(); err != nil {
		t.Fatal(err)
	}
	if p.t2.pages() != 0 || p.t2.bytes() != 0 {
		t.Fatalf("Clear left %d entries / %d bytes in tier-2", p.t2.pages(), p.t2.bytes())
	}

	// ShrinkTo truncates the device: entries past the boundary drop.
	// (Last: the device stays shrunk.)
	admit(5)
	if err := p.ShrinkTo(4); err != nil {
		t.Fatal(err)
	}
	if p.t2.contains(5) {
		t.Fatal("ShrinkTo left a tier-2 entry past the truncation point")
	}
}

func TestTier2ByteBudgetEvictsLRU(t *testing.T) {
	// Full pages of PRNG noise do not deflate, so each entry is kept raw
	// at a full page: a two-page budget holds exactly two entries and the
	// third admission evicts the least recently admitted.
	p, _ := newPool(t, 1024, 1, 16)
	const budget = 2*1024 + 64
	tier := newTier2(budget, compress.NewFlate(compress.DefaultLevel))
	page := func(seed uint32) []byte {
		b := make([]byte, 1024)
		x := seed*2654435761 + 2166136261
		for i := range b {
			x = x*1664525 + 1013904223
			b[i] = byte(x >> 24)
		}
		return b
	}
	for pn := pagedev.PageNo(0); pn < 3; pn++ {
		tier.admit(p, pn, page(uint32(pn)))
	}
	if tier.contains(0) {
		t.Fatal("budget should have evicted the oldest entry (page 0)")
	}
	if !tier.contains(1) || !tier.contains(2) {
		t.Fatal("newest entries must survive the budget sweep")
	}
	if tier.bytes() > budget {
		t.Fatalf("tier-2 over budget: %d bytes", tier.bytes())
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

func TestSelectiveEvictionWithTier2UnderWAL(t *testing.T) {
	// PR 7's selective clock pass skips dirty frames whose log records
	// are not yet durable. With tier-2 attached, the clean frames it
	// prefers must be admitted, and — after a mid-load sync makes the
	// dirty frames' LSNs durable — dirty victims must write back and be
	// admitted too, never bypassing the WAL rule.
	dev, _ := pagedev.NewMem(1024)
	pool, err := New(dev, 4)
	if err != nil {
		t.Fatal(err)
	}
	pool.EnableCompressedCache(1<<20, compress.NewFlate(compress.DefaultLevel))
	st := wal.NewMemStorage()
	w, err := wal.OpenWriter(st, wal.Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	pool.AttachWAL(w)
	if _, err := w.Begin("test", 0); err != nil {
		t.Fatal(err)
	}
	dev.Grow(16)

	// Two clean frames (written back and reloaded) and two dirty logged
	// frames whose records are not yet synced.
	mutate := func(pn pagedev.PageNo) {
		t.Helper()
		f, err := pool.GetNew(pn)
		if err != nil {
			t.Fatal(err)
		}
		f.Latch()
		u := f.BeginUpdate()
		s := pageformat.FormatSlotted(f.Data())
		s.Insert([]byte{byte(pn)})
		if err := f.EndUpdate(u); err != nil {
			t.Fatal(err)
		}
		f.Unlatch()
		f.Release()
	}
	mutate(0)
	mutate(1)
	if err := pool.FlushAll(); err != nil { // pages 0,1 now clean, device-backed
		t.Fatal(err)
	}
	mutate(2)
	mutate(3)
	if w.SyncedLSN() >= w.End() {
		t.Fatal("test premise: pages 2,3 must have unsynced log records")
	}

	// Under pressure the selective first pass must pick clean victims
	// (0 or 1), not force a log sync for 2 or 3.
	synced := w.SyncedLSN()
	f, err := pool.Get(8)
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	if w.SyncedLSN() != synced {
		t.Fatal("eviction forced a log sync despite clean victims being available")
	}
	if !pool.t2.contains(0) && !pool.t2.contains(1) {
		t.Fatal("clean victim was not admitted to tier-2")
	}
	if pool.t2.contains(2) || pool.t2.contains(3) {
		t.Fatal("dirty unsynced frame must not be in tier-2")
	}

	// Mid-load sync: the dirty frames become evictable; their write-back
	// (WAL rule already satisfied) admits them as well.
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	for pn := pagedev.PageNo(9); pn < 12; pn++ {
		g, err := pool.Get(pn)
		if err != nil {
			t.Fatal(err)
		}
		g.Release()
	}
	if !pool.t2.contains(2) && !pool.t2.contains(3) {
		t.Fatal("synced dirty victims were not admitted to tier-2 after write-back")
	}
	// Tier-2 reloads of the logged pages carry the right content.
	g, err := pool.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := pageformat.AsSlotted(g.Data())
	if err != nil {
		t.Fatal(err)
	}
	cell, err := s.Cell(0)
	if err != nil || cell[0] != 2 {
		t.Fatalf("cell = %v, %v", cell, err)
	}
	g.Release()
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}
