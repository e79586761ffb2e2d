package records

// BatchWriter is the bulk-load record sink: it packs record bodies onto
// freshly allocated pages one page at a time, so buffer-pool traffic is
// one pin/latch (plus one free-space-inventory update) per page instead
// of one FindSpace + pin + update per record, and page numbers advance
// sequentially so a loaded document sits contiguously on disk.
//
// Bodies are buffered in memory until their page is full and RIDs are
// handed out eagerly: the writer owns the whole page, so slot numbers
// are known in advance. That lets the bulk builder embed proxies to
// child records before a single byte has reached the page — and lets
// Patch fix a buffered record (a parent-RID backpointer) for free,
// without touching the buffer pool at all.
//
// Page materialization is its own pipeline stage: full pages are handed
// to a flusher goroutine over a small bounded queue, so page copies,
// log appends and inventory updates overlap with the packing of the
// next page. The handoff protocol keeps Patch correct at every moment:
// a submitted page's bodies stay in a pending table (guarded by mu)
// until the flusher — holding the page's exclusive frame latch — copies
// them out under the same mutex. A racing Patch therefore either lands
// in the pending body before the copy, or misses the table and falls
// through to Manager.Patch, which blocks on the frame latch until the
// page image (and its single log record) is complete. Either way the
// patch is never lost and the log stays one image per bulk page.
//
// Insert/Patch/Flush/Discard must be driven by a single mutator (the
// writer shares the segment allocator); the flusher goroutine is the
// writer's own second stage, not a second mutator.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"natix/internal/pagedev"
	"natix/internal/pageformat"
	"natix/internal/telemetry"
)

// BatchStats counts batch-writer activity.
type BatchStats struct {
	Records int64 // record bodies written
	Pages   int64 // pages materialized
	Bytes   int64 // body bytes written
	WriteNS int64 // busy time of the page-flusher stage
}

// flusherQueueLen bounds the flusher stage's page queue: enough to keep
// the flusher busy, small enough that a stalled device back-pressures
// the packer instead of buffering the whole document.
const flusherQueueLen = 8

// BatchWriter packs records onto sequential pages. Create with
// Manager.NewBatchWriter.
type BatchWriter struct {
	m       *Manager
	budget  int // cell+slot bytes to pack per page (fill factor applied)
	recycle func([]byte)

	page   pagedev.PageNo // page the buffered bodies belong to (0 = none)
	bodies [][]byte       // buffered bodies, slot i = bodies[i]
	used   int            // bytes the buffered bodies will occupy

	jobs chan pagedev.PageNo // submitted pages, in allocation order
	done chan struct{}       // closed when the flusher goroutine exits

	// abandoned is set while Abandon runs: the flusher skips what is queued.
	abandoned atomic.Bool

	mu       sync.Mutex
	pending  map[pagedev.PageNo][][]byte // submitted, not yet materialized
	written  []RID                       // materialized records, kept for Discard
	stats    BatchStats
	flushErr error // first flusher failure, sticky until Flush/Discard
}

// NewBatchWriter returns a batch writer that fills each page up to
// fill × capacity (clamped to [0.25, 1]; 0 means 1: a bulk load fills
// its pages, and the first insert into a full record splits it, as the
// paper's algorithm does anywhere else). The slack left by fill factors
// below 1 is registered in the free-space inventory, so incremental
// inserts into the loaded document can grow records in place.
func (m *Manager) NewBatchWriter(fill float64) *BatchWriter {
	if fill == 0 {
		fill = 1
	}
	if fill < 0.25 {
		fill = 0.25
	}
	if fill > 1 {
		fill = 1
	}
	capacity := m.MaxRecordSize() + pageformat.SlotOverhead
	return &BatchWriter{
		m:       m,
		budget:  int(fill * float64(capacity)),
		pending: make(map[pagedev.PageNo][][]byte),
	}
}

// SetRecycle registers a sink for consumed body buffers: once a body's
// bytes are on their page, it is handed back for reuse. The sink runs on
// the flusher goroutine and must be safe for that.
func (w *BatchWriter) SetRecycle(fn func([]byte)) { w.recycle = fn }

// Room returns the size of the largest body the page being packed still
// takes; a larger one starts the next page. The bulk builder cuts its
// records to it, so pages end full instead of wherever the next
// budget-sized record happened not to fit.
func (w *BatchWriter) Room() int {
	return w.budget - w.used - pageformat.SlotOverhead
}

// Insert buffers one record body and returns the RID it will occupy.
// The writer takes ownership of data (Patch may modify it in place, and
// the body is recycled once materialized).
func (w *BatchWriter) Insert(data []byte) (RID, error) {
	if err := w.m.checkSize(len(data)); err != nil {
		return NilRID, err
	}
	need := len(data) + pageformat.SlotOverhead
	if w.page != 0 && w.used+need > w.budget && len(w.bodies) > 0 {
		if err := w.submit(); err != nil {
			return NilRID, err
		}
	}
	if w.page == 0 {
		p, err := w.m.seg.AllocDataPage()
		if err != nil {
			return NilRID, err
		}
		w.page = p
	}
	rid := RID{Page: w.page, Slot: uint16(len(w.bodies))}
	w.bodies = append(w.bodies, data)
	w.used += need
	return rid, nil
}

// Patch overwrites len(data) bytes of a record at the given offset. For
// records still buffered in the writer (current page or a page awaiting
// the flusher) it is a memory copy; for records already materialized it
// falls through to Manager.Patch.
func (w *BatchWriter) Patch(rid RID, off int, data []byte) error {
	if rid.Page == w.page && int(rid.Slot) < len(w.bodies) {
		return patchBody(w.bodies[rid.Slot], off, data)
	}
	w.mu.Lock()
	if bodies, ok := w.pending[rid.Page]; ok && int(rid.Slot) < len(bodies) {
		err := patchBody(bodies[rid.Slot], off, data)
		w.mu.Unlock()
		return err
	}
	w.mu.Unlock()
	return w.m.Patch(rid, off, data)
}

func patchBody(body []byte, off int, data []byte) error {
	if off < 0 || off+len(data) > len(body) {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrBadOffset, off, off+len(data), len(body))
	}
	copy(body[off:], data)
	return nil
}

// submit hands the current page to the flusher stage and starts a fresh
// one, failing fast if the flusher already hit an error.
func (w *BatchWriter) submit() error {
	w.mu.Lock()
	if err := w.flushErr; err != nil {
		w.mu.Unlock()
		return err
	}
	w.pending[w.page] = w.bodies
	w.mu.Unlock()
	if w.jobs == nil {
		w.jobs = make(chan pagedev.PageNo, flusherQueueLen)
		w.done = make(chan struct{})
		go w.flusher()
	}
	w.jobs <- w.page
	w.page = 0
	w.bodies = make([][]byte, 0, cap(w.bodies))
	w.used = 0
	return nil
}

// flusher drains the page queue, materializing each page in allocation
// order and charging its wall time to the flusher stage. After a failure
// it keeps draining (recording the first error) so the packer never
// blocks on a full queue.
func (w *BatchWriter) flusher() {
	defer close(w.done)
	for p := range w.jobs {
		if w.abandoned.Load() {
			continue
		}
		start := telemetry.Now()
		err := w.flushPage(p)
		w.mu.Lock()
		w.stats.WriteNS += int64(telemetry.Since(start))
		if err != nil && w.flushErr == nil {
			w.flushErr = err
		}
		w.mu.Unlock()
	}
}

// flushPage writes one submitted page's bodies onto the page under a
// single pin/latch and registers its remaining free space.
func (w *BatchWriter) flushPage(p pagedev.PageNo) error {
	var v visit
	err := w.m.pin(&v, p, true)
	pinned := err == nil
	// Copy the bodies out under mu while holding the frame latch: Patch
	// callers either still see the pending entry (and patch the body
	// before this copy) or miss it and serialize behind the latch.
	w.mu.Lock()
	bodies := w.pending[p]
	delete(w.pending, p)
	for i := 0; err == nil && i < len(bodies); i++ {
		if slot, ok := v.sl.Insert(bodies[i]); !ok || slot != i {
			err = fmt.Errorf("records: batch page %d: slot %d/%v, want %d (page not empty?)", p, slot, ok, i)
		}
	}
	w.mu.Unlock()
	if !pinned {
		return err
	}
	if err == nil {
		// One page-image log record covers the whole packed page (the
		// page was freshly allocated by this writer), preserving the bulk
		// path's one-write-per-page property on the log as well.
		err = v.f.LogImage()
	}
	if err := w.m.end(&v, true, err); err != nil {
		return err
	}
	w.mu.Lock()
	for i := range bodies {
		w.written = append(w.written, RID{Page: p, Slot: uint16(i)})
		w.stats.Bytes += int64(len(bodies[i]))
	}
	w.stats.Records += int64(len(bodies))
	w.stats.Pages++
	w.mu.Unlock()
	if w.recycle != nil {
		for _, body := range bodies {
			w.recycle(body)
		}
	}
	return nil
}

// join stops the flusher stage and waits for queued pages to finish.
func (w *BatchWriter) join() {
	if w.jobs == nil {
		return
	}
	close(w.jobs)
	<-w.done
	w.jobs = nil
	w.done = nil
}

// Flush materializes any partially filled page and drains the flusher
// stage. Call once when the bulk load is complete; the writer can keep
// inserting afterwards (a new page and flusher start).
func (w *BatchWriter) Flush() error {
	if w.page != 0 && len(w.bodies) > 0 {
		if err := w.submit(); err != nil {
			w.join()
			return err
		}
	}
	w.page = 0
	w.join()
	w.mu.Lock()
	err := w.flushErr
	w.flushErr = nil
	w.mu.Unlock()
	return err
}

// Discard aborts the batch: buffered and queued bodies are dropped
// (their pages were never referenced, and stay registered as empty or
// untouched in the inventory) and every record this writer materialized
// is deleted. Used to roll back a failed bulk load.
func (w *BatchWriter) Discard() error {
	w.join()
	var firstErr error
	for _, rid := range w.reset() {
		if err := w.m.Delete(rid); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Abandon stops the flusher stage and forgets the batch without undoing
// it: queued pages are dropped unmaterialized and materialized records
// stay where they are. It is for a caller whose rollback restores every
// touched page from the log and truncates the rest: that rollback must
// not start while the flusher can still write pages, log images or
// inventory entries behind it.
func (w *BatchWriter) Abandon() {
	w.abandoned.Store(true)
	w.join()
	w.abandoned.Store(false)
	w.reset()
}

// reset empties the writer once its flusher has stopped and returns the
// records it had materialized.
func (w *BatchWriter) reset() []RID {
	w.page = 0
	w.bodies = nil
	w.used = 0
	w.mu.Lock()
	defer w.mu.Unlock()
	written := w.written
	w.written = nil
	w.pending = make(map[pagedev.PageNo][][]byte)
	w.flushErr = nil
	return written
}

// Stats returns the writer's activity counters. Call after Flush (or
// between operations) for a settled view.
func (w *BatchWriter) Stats() BatchStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}
