package buffer

// Sequential read-ahead. Scans that walk pages in near-sequential RID
// order (the navigating-scan evaluator, ExportXML, recovery redo, the
// integrity sweep) announce their next-N pages; a bounded number of
// background batches load them — from tier-2 or the device — so misses
// overlap with compute, and on the simulated disk a run of prefetched
// pages costs one seek plus sequential transfers instead of a seek per
// page.
//
// Prefetched frames are installed unpinned with the reference bit
// clear, so a speculative page that is never touched is the clock's
// first victim — read-ahead can delay but never displace the
// twice-touched working set. Loads route through the pool's ioretry
// policy; errors abort the batch silently (the foreground read that
// actually needs the page will surface them).

import (
	"context"
	"sync"
	"time"

	"natix/internal/pagedev"
	"natix/internal/telemetry"
)

const (
	// maxPrefetchInflight bounds concurrent background batches.
	maxPrefetchInflight = 2
	// maxPrefetchBatch bounds pages per batch; a batch is additionally
	// clamped to half the pool so read-ahead cannot flush the pool.
	maxPrefetchBatch = 64
)

// prefetchPages recycles page-number slices for the batch API.
var prefetchPages = sync.Pool{New: func() any {
	b := make([]pagedev.PageNo, 0, maxPrefetchBatch)
	return &b
}}

// Prefetch schedules asynchronous loads of the given pages. It returns
// immediately; pages already resident are skipped, at most
// maxPrefetchInflight batches run concurrently (excess requests are
// dropped — prefetch is a hint), and the batch stops early when ctx is
// cancelled. A nil ctx means context.Background().
func (p *Pool) Prefetch(ctx context.Context, pages []pagedev.PageNo) {
	if len(pages) == 0 {
		return
	}
	if ctx == nil {
		ctx = context.Background()
	}
	want := 0
	for _, pn := range pages {
		if !p.Resident(pn) {
			want++
		}
	}
	if want == 0 {
		return
	}
	bp := prefetchPages.Get().(*[]pagedev.PageNo)
	batch := (*bp)[:0]
	for _, pn := range pages {
		if len(batch) == cap(batch) {
			break
		}
		batch = append(batch, pn)
	}
	*bp = batch
	if !p.startPrefetch() {
		prefetchPages.Put(bp)
		return
	}
	go func() {
		defer p.endPrefetch()
		for _, pn := range *bp {
			if ctx.Err() != nil {
				break
			}
			if !p.prefetchOne(pn) {
				break
			}
		}
		prefetchPages.Put(bp)
	}()
}

// PrefetchRange is the allocation-free form of Prefetch for sequential
// announcements: it schedules pages [start, start+n), clamped to the
// device size and the batch bound. The fully-resident case — every
// warm iteration — returns without spawning anything, which is what
// keeps warm query cursors at zero allocations.
//
//natix:noalloc
func (p *Pool) PrefetchRange(ctx context.Context, start pagedev.PageNo, n int) {
	if n < 1 {
		return
	}
	if n > maxPrefetchBatch {
		n = maxPrefetchBatch
	}
	if half := p.capacity / 2; n > half {
		n = half
		if n < 1 {
			return
		}
	}
	if last := p.dev.NumPages(); start >= last {
		return
	} else if pagedev.PageNo(n) > last-start {
		n = int(last - start)
	}
	absent := false
	for i := 0; i < n; i++ {
		if !p.Resident(start + pagedev.PageNo(i)) {
			absent = true
			break
		}
	}
	if !absent {
		return
	}
	if !p.startPrefetch() {
		return
	}
	go p.prefetchRangeWorker(ctx, start, n)
}

func (p *Pool) prefetchRangeWorker(ctx context.Context, start pagedev.PageNo, n int) {
	defer p.endPrefetch()
	for i := 0; i < n; i++ {
		if ctx != nil && ctx.Err() != nil {
			return
		}
		if !p.prefetchOne(start + pagedev.PageNo(i)) {
			return
		}
	}
}

// startPrefetch claims a background-batch slot; false means the bound
// is reached and the request is dropped.
//
//natix:noalloc
func (p *Pool) startPrefetch() bool {
	for {
		n := p.prefetchInflight.Load()
		if n >= maxPrefetchInflight {
			return false
		}
		if p.prefetchInflight.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

func (p *Pool) endPrefetch() { p.prefetchInflight.Add(-1) }

// DrainPrefetch blocks until no background prefetch batch is running.
// Benchmark resets call it so a "cold" measurement is not warmed by a
// straggler batch from the previous phase.
func (p *Pool) DrainPrefetch() {
	for p.prefetchInflight.Load() > 0 {
		// Prefetch batches hold no locks across iterations and finish in
		// bounded time; a short sleep loop is simpler than plumbing a
		// WaitGroup through the spawn race.
		telemetry.Sleep(20 * time.Microsecond)
	}
}

// prefetchOne loads page pn into an unpinned frame unless it is already
// resident. It returns false when the batch should stop: the pool is
// out of evictable frames or the device errored.
func (p *Pool) prefetchOne(pn pagedev.PageNo) bool {
	sh := p.shardOf(pn)
	sh.mu.RLock()
	_, ok := sh.frames[pn]
	sh.mu.RUnlock()
	if ok {
		return true
	}
	// Reserve a frame slot against the capacity, like a foreground miss.
	for {
		n := p.size.Load()
		if n >= int64(p.capacity) {
			if err := p.evictOne(); err != nil {
				return false
			}
			continue
		}
		if p.size.CompareAndSwap(n, n+1) {
			break
		}
	}
	sh.mu.Lock()
	if _, ok := sh.frames[pn]; ok {
		sh.mu.Unlock()
		p.size.Add(-1)
		return true
	}
	f := &Frame{pool: p, page: pn, data: p.takeImage(false)}
	if err := p.loadInto(f); err != nil {
		sh.mu.Unlock()
		p.size.Add(-1)
		p.recycle(f)
		return false
	}
	f.prefetched.Store(true)
	sh.frames[pn] = f
	f.ringIdx = len(sh.ring)
	sh.ring = append(sh.ring, f)
	sh.mu.Unlock()
	p.prefetchIssued.Inc()
	return true
}
