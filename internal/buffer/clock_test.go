package buffer

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"natix/internal/pagedev"
	"natix/internal/pageformat"
	"natix/internal/wal"
)

// gateDev counts device reads and records the pages written. While gate
// is set, every read waits for it to be closed.
type gateDev struct {
	pagedev.Device
	reads  atomic.Int64
	gate   chan struct{}
	mu     sync.Mutex
	writes []pagedev.PageNo
}

func (d *gateDev) Read(p pagedev.PageNo, buf []byte) error {
	d.reads.Add(1)
	if d.gate != nil {
		<-d.gate
	}
	return d.Device.Read(p, buf)
}

func (d *gateDev) Write(p pagedev.PageNo, buf []byte) error {
	d.mu.Lock()
	d.writes = append(d.writes, p)
	d.mu.Unlock()
	return d.Device.Write(p, buf)
}

// gatedPool returns a cleared pool of frames frames over a gateDev
// wrapping inner, whose pages [0, pages) are formatted and flushed.
func gatedPool(t *testing.T, inner pagedev.Device, frames, pages int) (*Pool, *gateDev) {
	t.Helper()
	if err := inner.Grow(pagedev.PageNo(pages)); err != nil {
		t.Fatal(err)
	}
	dev := &gateDev{Device: inner}
	p, err := New(dev, frames)
	if err != nil {
		t.Fatal(err)
	}
	fillPages(t, p, pages)
	if err := p.Clear(); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()
	dev.reads.Store(0)
	return p, dev
}

// waitFor polls cond for up to ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// getAll runs n goroutines that each Get page pn, and returns their
// frames and errors once the gate opens and all have returned.
func getAll(p *Pool, pn pagedev.PageNo, n int) (frames []*Frame, errs []error, wait func()) {
	frames, errs = make([]*Frame, n), make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			frames[g], errs[g] = p.Get(pn)
		}()
	}
	return frames, errs, wg.Wait
}

// TestConcurrentColdGetReadsOnce: eight goroutines Get one cold page.
// The first publishes a loading frame and reads; the other seven find it
// and wait for that read. One device read, one frame, eight pins.
func TestConcurrentColdGetReadsOnce(t *testing.T) {
	mem, _ := pagedev.NewMem(1024)
	p, dev := gatedPool(t, mem, 4, 8)
	dev.gate = make(chan struct{})
	frames, errs, wait := getAll(p, 5, 8)
	waitFor(t, "seven joiners", func() bool { return p.loadWaits.Load() == 7 })
	close(dev.gate)
	wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
		if frames[g] != frames[0] {
			t.Fatalf("goroutine %d got another frame", g)
		}
	}
	if n := dev.reads.Load(); n != 1 {
		t.Fatalf("%d device reads, want 1", n)
	}
	if n := p.Cached(); n != 1 {
		t.Fatalf("%d frames, want 1", n)
	}
	if n := frames[0].pins.Load(); n != 8 {
		t.Fatalf("%d pins, want 8", n)
	}
	if err := checkPage(p, 5); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.PhysReads != 1 || st.Hits != st.LogicalReads-1 {
		t.Fatalf("stats %+v: want one physical read and every other read a hit", st)
	}
	for _, f := range frames {
		f.Release()
	}
}

// TestFailedLoadReachesEveryWaiter: a read that fails past the retryer
// fails the loader and every goroutine that joined it with the same
// error, and leaves nothing behind: the page is not resident and the
// slot is free again. The next Get reads the page and succeeds.
func TestFailedLoadReachesEveryWaiter(t *testing.T) {
	mem, _ := pagedev.NewMem(1024)
	fault := pagedev.NewFault(mem, &pagedev.CrashClock{})
	p, dev := gatedPool(t, fault, 4, 8)
	if err := checkPage(p, 1); err != nil { // one frame resident before
		t.Fatal(err)
	}
	cached := p.Cached()
	fault.InjectReadErrors(6, 4) // every attempt of the retryer
	dev.gate = make(chan struct{})
	_, errs, wait := getAll(p, 6, 4)
	waitFor(t, "three joiners", func() bool { return p.loadWaits.Load() == 3 })
	close(dev.gate)
	wait()
	for g, err := range errs {
		if !errors.Is(err, pagedev.ErrTransient) {
			t.Fatalf("goroutine %d: %v, want the read's error", g, err)
		}
	}
	if p.Resident(6) {
		t.Fatal("page 6 resident after its read failed")
	}
	if n := p.Cached(); n != cached {
		t.Fatalf("Cached() = %d after the failed read, want %d", n, cached)
	}
	if err := checkPage(p, 6); err != nil {
		t.Fatalf("the next Get: %v", err)
	}
	if n := p.Cached(); n != cached+1 {
		t.Fatalf("Cached() = %d, want %d", n, cached+1)
	}
}

// TestLoadingFrameIsNeverAVictim: in a one-frame pool whose only frame
// is still being read, a miss on another page finds no victim.
func TestLoadingFrameIsNeverAVictim(t *testing.T) {
	mem, _ := pagedev.NewMem(1024)
	p, dev := gatedPool(t, mem, 1, 4)
	dev.gate = make(chan struct{})
	frames, errs, wait := getAll(p, 0, 1)
	waitFor(t, "the read", func() bool { return dev.reads.Load() == 1 })
	if _, err := p.Get(1); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("Get(1) beside a loading frame: %v, want ErrPoolFull", err)
	}
	if _, err := p.GetNew(2); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("GetNew(2) beside a loading frame: %v, want ErrPoolFull", err)
	}
	close(dev.gate)
	wait()
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	frames[0].Release()
	if err := checkPage(p, 0); err != nil {
		t.Fatal(err)
	}
}

// loadPages Gets and releases each page in order.
func loadPages(t *testing.T, p *Pool, pages ...pagedev.PageNo) {
	t.Helper()
	for _, pn := range pages {
		f, err := p.Get(pn)
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
}

// residentPages lists the pages of [0, n) resident in p.
func residentPages(p *Pool, n int) []pagedev.PageNo {
	var out []pagedev.PageNo
	for pn := pagedev.PageNo(0); pn < pagedev.PageNo(n); pn++ {
		if p.Resident(pn) {
			out = append(out, pn)
		}
	}
	return out
}

// TestClockSecondChance: the hand passes a referenced frame once,
// clearing its bit, and takes the first unreferenced one; a freshly
// loaded frame starts unreferenced, so the hand takes it when it comes
// round unless it was hit meanwhile.
func TestClockSecondChance(t *testing.T) {
	p, _ := newPool(t, 1024, 4, 16)
	fillPages(t, p, 16)
	if err := p.Clear(); err != nil {
		t.Fatal(err)
	}
	loadPages(t, p, 0, 1, 2, 3) // slots 0–3, the hand back at slot 0
	loadPages(t, p, 0)          // a hit: page 0 referenced
	p.ResetStats()
	loadPages(t, p, 4) // passes page 0, takes page 1
	if got := residentPages(p, 16); !slices.Equal(got, []pagedev.PageNo{0, 2, 3, 4}) {
		t.Fatalf("resident %v, want [0 2 3 4]: the referenced page survives one sweep", got)
	}
	if n := p.clockProbes.Load(); n != 2 {
		t.Fatalf("%d clock probes, want 2", n)
	}
	loadPages(t, p, 5, 6) // pages 2 and 3
	loadPages(t, p, 7)    // page 0, its second chance spent
	if got := residentPages(p, 16); !slices.Equal(got, []pagedev.PageNo{4, 5, 6, 7}) {
		t.Fatalf("resident %v, want [4 5 6 7]", got)
	}
	loadPages(t, p, 8) // page 4, loaded one revolution ago and never hit
	if got := residentPages(p, 16); !slices.Equal(got, []pagedev.PageNo{5, 6, 7, 8}) {
		t.Fatalf("resident %v, want [5 6 7 8]: a fresh frame does not survive the hand", got)
	}
}

// TestClockPassesUndurableDirtyFrames: with a log attached, the first
// revolution passes over dirty frames the log has not made durable. When
// every frame is one, the second revolution takes the first of them and
// writes it back after the log is flushed through its page LSN.
func TestClockPassesUndurableDirtyFrames(t *testing.T) {
	inner, _ := pagedev.NewMem(1024)
	dev := &gateDev{Device: inner}
	dev.Grow(16)
	p, err := New(dev, 4)
	if err != nil {
		t.Fatal(err)
	}
	w, err := wal.OpenWriter(wal.NewMemStorage(), wal.Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	p.AttachWAL(w)
	if _, err := w.Begin("test", 0); err != nil {
		t.Fatal(err)
	}
	var lsn0 wal.LSN
	for pn := pagedev.PageNo(0); pn < 4; pn++ {
		f, err := p.GetNew(pn)
		if err != nil {
			t.Fatal(err)
		}
		f.Latch()
		u := f.BeginUpdate()
		pageformat.FormatSlotted(f.Data()).Insert([]byte{byte(pn)})
		if err := f.EndUpdate(u); err != nil {
			t.Fatal(err)
		}
		if pn == 0 {
			lsn0 = wal.LSN(f.pageLSN.Load())
		}
		f.Unlatch()
		f.Release()
	}
	if w.SyncedLSN() > lsn0 {
		t.Fatal("test premise: page 0's record must not be durable yet")
	}
	p.ResetStats()
	f, err := p.GetNew(4)
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	if n := p.clockProbes.Load(); n != 5 {
		t.Fatalf("%d clock probes, want 5: one revolution passed, then page 0", n)
	}
	if p.Resident(0) || !slices.Equal(dev.writes, []pagedev.PageNo{0}) {
		t.Fatalf("page 0 resident %v, writes %v: want page 0 evicted and written back", p.Resident(0), dev.writes)
	}
	if w.SyncedLSN() <= lsn0 {
		t.Fatalf("page 0 written back before the log was durable through its LSN %d (synced %d)", lsn0, w.SyncedLSN())
	}
	buf := make([]byte, 1024)
	if err := inner.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := pageformat.VerifyChecksum(buf); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolFullOnlyWhenAllPinned: a miss evicts the one unpinned frame
// even when it is referenced, and fails with ErrPoolFull only once every
// frame is pinned — leaving the pool as it was.
func TestPoolFullOnlyWhenAllPinned(t *testing.T) {
	p, _ := newPool(t, 1024, 4, 16)
	fillPages(t, p, 16)
	var pinned []*Frame
	for pn := pagedev.PageNo(0); pn < 3; pn++ {
		f, err := p.Get(pn)
		if err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, f)
	}
	loadPages(t, p, 3, 3) // unpinned, referenced
	loadPages(t, p, 4)
	if p.Resident(3) || !p.Resident(4) {
		t.Fatal("the one unpinned frame was not the victim")
	}
	f, err := p.Get(4)
	if err != nil {
		t.Fatal(err)
	}
	pinned = append(pinned, f)
	cached := p.Cached()
	if _, err := p.Get(5); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("Get with every frame pinned: %v, want ErrPoolFull", err)
	}
	if p.Resident(5) || p.Cached() != cached {
		t.Fatal("a failed miss left a frame behind")
	}
	pinned[0].Release()
	loadPages(t, p, 5)
	for _, f := range pinned[1:] {
		f.Release()
	}
}

// TestDirtyFillWritesBackInPageOrder: filling a pool with new dirty
// pages in page order makes the hand write them back in ascending page
// order, one after the other as it comes round.
func TestDirtyFillWritesBackInPageOrder(t *testing.T) {
	inner, _ := pagedev.NewMem(1024)
	dev := &gateDev{Device: inner}
	dev.Grow(64)
	p, err := New(dev, 8)
	if err != nil {
		t.Fatal(err)
	}
	for pn := pagedev.PageNo(0); pn < 64; pn++ {
		f, err := p.GetNew(pn)
		if err != nil {
			t.Fatal(err)
		}
		format(f, byte(pn))
		f.Release()
	}
	want := make([]pagedev.PageNo, 56)
	for i := range want {
		want[i] = pagedev.PageNo(i)
	}
	if !slices.Equal(dev.writes, want) {
		t.Fatalf("write-back order %v, want pages 0–55 ascending", dev.writes)
	}
}
