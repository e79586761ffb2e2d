package buffer

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"natix/internal/pagedev"
	"natix/internal/pageformat"
)

// pageCell is the cell page pn carries in these tests: its own number.
func pageCell(pn int) []byte {
	return binary.LittleEndian.AppendUint32(nil, uint32(pn))
}

// fillPages formats pages [0, n) through the pool, page i carrying the
// cell pageCell(i), and flushes them to the device.
func fillPages(t *testing.T, p *Pool, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		f, err := p.GetNew(pagedev.PageNo(i))
		if err != nil {
			t.Fatal(err)
		}
		pageformat.FormatSlotted(f.Data()).Insert(pageCell(i))
		f.MarkDirty()
		f.Release()
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

// checkPage reads page pn through the pool and verifies it is pn's own
// image: the cell fillPages gave it, under a valid checksum.
func checkPage(p *Pool, pn int) error {
	f, err := p.Get(pagedev.PageNo(pn))
	if err != nil {
		return err
	}
	defer f.Release()
	f.Latch() // exclusive: verification blanks the checksum field while it sums
	defer f.Unlatch()
	if err := pageformat.VerifyChecksum(f.Data()); err != nil {
		return fmt.Errorf("page %d: %w", pn, err)
	}
	s, err := pageformat.AsSlotted(f.Data())
	if err != nil {
		return fmt.Errorf("page %d: %w", pn, err)
	}
	cell, err := s.Cell(0)
	if err != nil || !bytes.Equal(cell, pageCell(pn)) {
		return fmt.Errorf("page %d holds cell %v (%v), want %v", pn, cell, err, pageCell(pn))
	}
	return nil
}

// TestRecycledImageCarriesOwnPage cycles 24 pages through a 4-frame pool
// several times: from the fifth load on every frame is built on the image
// of an evicted one, and each page read must still be its own. The
// subtest name records that no second cache tier sits behind the pool.
func TestRecycledImageCarriesOwnPage(t *testing.T) {
	t.Run("tier2=false", recycledImageCarriesOwnPage)
}

func recycledImageCarriesOwnPage(t *testing.T) {
	const pages = 24
	p, _ := newPool(t, 1024, 4, pages)
	fillPages(t, p, pages)
	p.ResetStats()
	for pass := 0; pass < 3; pass++ {
		for pn := 0; pn < pages; pn++ {
			if err := checkPage(p, pn); err != nil {
				t.Fatalf("pass %d: %v", pass, err)
			}
		}
	}
	if st := p.Stats(); st.Evictions < 2*pages {
		t.Fatalf("only %d evictions: the pool did not cycle", st.Evictions)
	}
	// Every eviction hands its image to the miss that made it: the pool
	// still holds one image per slot, no two frames sharing one.
	images := map[*byte]pagedev.PageNo{}
	for i := range p.slots {
		f := p.slots[i].Load()
		if f == nil {
			t.Fatalf("slot %d empty after the passes", i)
		}
		if pn, ok := images[&f.data[0]]; ok {
			t.Fatalf("pages %d and %d share one image", pn, f.page)
		}
		images[&f.data[0]] = f.page
	}
}

// TestEvictedImageIsReusedAndZeroedForGetNew pins down the recycling
// itself on a one-frame pool: the next frame is built on the evicted
// frame's bytes, a load overwrites them, and GetNew hands them out all
// zero however full the evicted page was.
func TestEvictedImageIsReusedAndZeroedForGetNew(t *testing.T) {
	p, _ := newPool(t, 1024, 1, 4)
	f, err := p.GetNew(0)
	if err != nil {
		t.Fatal(err)
	}
	format(f, 0x11)
	// Fill the page, so a recycled image that was not cleared shows.
	if s, err := pageformat.AsSlotted(f.Data()); err != nil {
		t.Fatal(err)
	} else if _, ok := s.Insert(bytes.Repeat([]byte{0xEE}, 900)); !ok {
		t.Fatal("filler cell does not fit")
	}
	first := &f.Data()[0]
	f.Release()

	g, err := p.GetNew(1) // evicts page 0
	if err != nil {
		t.Fatal(err)
	}
	if &g.Data()[0] != first {
		t.Fatal("GetNew did not reuse the evicted frame's image")
	}
	for i, b := range g.Data() {
		if b != 0 {
			t.Fatalf("GetNew on a recycled image: byte %d is %#x, want zero before formatting", i, b)
		}
	}
	format(g, 0x22)
	g.Release()

	h, err := p.Get(0) // evicts page 1, loads page 0 into the same bytes
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if &h.Data()[0] != first {
		t.Fatal("Get did not reuse the evicted frame's image")
	}
	s, err := pageformat.AsSlotted(h.Data())
	if err != nil {
		t.Fatal(err)
	}
	if cell, err := s.Cell(0); err != nil || cell[0] != 0x11 {
		t.Fatalf("page 0 after reload: cell %v, %v", cell, err)
	}
}

// TestEvictedFrameDataPanics: a frame pointer kept past its last Release
// must not read the page that moved into its bytes.
func TestEvictedFrameDataPanics(t *testing.T) {
	p, _ := newPool(t, 1024, 1, 4)
	fillPages(t, p, 2)
	stale, err := p.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	stale.Release()
	live, err := p.Get(1) // evicts page 0; its image now backs page 1
	if err != nil {
		t.Fatal(err)
	}
	defer live.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("reading Data() of an evicted frame did not panic")
		}
	}()
	_ = stale.Data()[pageformat.CommonHeaderSize]
}

// TestRecycleUnderConcurrentChurn has four readers miss and evict against
// each other in a small pool, so images change hands between goroutines;
// every page read must be its own. Run under -race. The subtest name
// records that no second cache tier sits behind the pool.
func TestRecycleUnderConcurrentChurn(t *testing.T) {
	t.Run("tier2=false", recycleUnderConcurrentChurn)
}

func recycleUnderConcurrentChurn(t *testing.T) {
	const pages = 32
	p, _ := newPool(t, 1024, 6, pages)
	fillPages(t, p, pages)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				if err := checkPage(p, rng.Intn(pages)); err != nil {
					errs <- err
					return
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
