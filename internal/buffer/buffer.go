// Package buffer implements the NATIX buffer manager: a fixed-capacity
// pool of page frames over a pagedev.Device with pin counting,
// second-chance (clock) replacement and write-back of dirty pages.
//
// The paper's experiments use a 2 MB buffer that is cleared at the start
// of each measured operation (§4.2); Clear provides exactly that. The pool
// tracks logical and physical I/O counts so the benchmark harness can
// report both, and it verifies/refreshes per-page checksums at the
// physical I/O boundary.
//
// # Concurrency
//
// The pool is safe for concurrent use and is built so a buffer hit never
// takes a pool-wide lock: the page table is sharded (per-shard RWMutex),
// pin counts and the dirty/reference bits are per-frame atomics, and
// replacement is an approximate-LRU clock sweep that only runs on
// misses, serialized by a narrow eviction lock. The reference bit is set
// on hits, not on first load, so a page touched twice survives a page
// streamed through once — the property the LRU tests pin down.
//
// Frames additionally carry a latch (an RWMutex over the page image):
// callers that read page bytes hold the shared latch, callers that
// mutate them hold the exclusive latch. Pinning keeps a frame resident;
// latching keeps its bytes consistent. The two are separate so many
// readers of one page can proceed in parallel while a writer of an
// unrelated page mutates its own frames.
//
// # Write-ahead logging
//
// With a log attached (AttachWAL), the pool enforces the WAL rule: a
// dirty frame is never written back — by eviction, FlushAll or Clear —
// until the log is durable through the frame's page LSN. Mutators
// bracket page changes with BeginUpdate/EndUpdate: BeginUpdate
// snapshots the page — or only the byte windows the caller declares it
// may touch — EndUpdate diffs the snapshot against the mutated image
// and appends the changed byte ranges (with before and after bytes) to
// the log, stamping the record's LSN into the page header. A node
// spliced into a record where it lies is bracketed with BeginShift
// instead, which snapshots and logs what is inserted, not the tail that
// moves (a wal.Shift record) — once the page has its image in the
// current checkpoint epoch's log, which is what lets replay apply a
// record that is not idempotent.
// The first change to a page after a checkpoint logs the full
// before-image alongside the ranges, so restart recovery can rebuild
// the page even if a later write-back tears it. Freshly allocated
// pages log a single full after-image instead (LogImage, used by the
// bulk loader's one-write-per-page path, and by EndUpdate for frames
// obtained with GetNew).
package buffer

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"natix/internal/ioretry"
	"natix/internal/pagedev"
	"natix/internal/pageformat"
	"natix/internal/telemetry"
	"natix/internal/wal"
)

// Errors returned by the pool.
var (
	ErrPoolFull  = errors.New("buffer: all frames pinned")
	ErrPinned    = errors.New("buffer: page still pinned")
	ErrNoFrames  = errors.New("buffer: capacity must be at least one frame")
	ErrReleased  = errors.New("buffer: frame already released")
	ErrCorrupted = errors.New("buffer: page failed checksum verification")
)

// Stats counts buffer activity since the last ResetStats.
type Stats struct {
	LogicalReads int64 // Get/GetNew/Touch calls
	Hits         int64 // logical reads served from the pool
	PhysReads    int64 // pages read from the device
	PhysWrites   int64 // pages written to the device
	Evictions    int64 // frames evicted to make room
	LatchWaits   int64 // latch acquisitions that had to block

	CoalescedWriteRuns int64 // multi-page vectored writes issued by flushes
}

// numShards is the page-table shard count. Pages are numbered densely,
// so a simple modulo spreads consecutive pages across shards.
const numShards = 16

// shard is one partition of the page table. ring holds the shard's
// frames in clock order for the second-chance sweep; hand is the sweep
// position within ring.
type shard struct {
	mu     sync.RWMutex
	frames map[pagedev.PageNo]*Frame
	ring   []*Frame
	hand   int
}

// Pool is a buffer pool. All methods are safe for concurrent use.
type Pool struct {
	dev      pagedev.Device
	capacity int
	shards   [numShards]shard
	size     atomic.Int64 // frames resident (never exceeds capacity)
	verify   atomic.Bool

	// wal, when attached, receives a record for every page mutation
	// and gates write-back (the WAL rule). walEpoch increments at each
	// checkpoint; a frame whose logEpoch lags logs a full before-image
	// on its next update. snapPool recycles BeginUpdate snapshots
	// (*snapshot).
	wal      *wal.Writer
	walEpoch atomic.Uint64
	snapPool sync.Pool

	// evictMu serializes clock sweeps; handShard is the shard the next
	// sweep starts at, persisting the clock position across evictions.
	evictMu   sync.Mutex
	handShard int

	// retry absorbs transient device errors at the two physical I/O
	// sites (page load, write-back): a momentary EIO costs a counter
	// tick and a short backoff instead of failing the operation.
	retry ioretry.Retryer

	// spare holds the page images of evicted frames for the next misses
	// to load into (at most maxSpareImages; see takeImage/recycle).
	spareMu sync.Mutex
	spare   [][]byte

	// Hit-path counters are sharded: every Get on every goroutine
	// bumps them, so a single cache line would be the pool's hottest
	// contention point. The rest increment only around physical I/O.
	logicalReads  telemetry.ShardedCounter
	hits          telemetry.ShardedCounter
	physReads     telemetry.Counter
	physWrites    telemetry.Counter
	evictions     telemetry.Counter
	latchWaits    telemetry.Counter
	coalescedRuns telemetry.Counter
}

// Frame is a pinned page image. Callers must Release every frame they
// obtain; Data is valid only while the frame is pinned. Concurrent users
// must additionally hold the frame latch around Data access: shared
// (RLatch) to read the bytes, exclusive (Latch) to mutate them.
type Frame struct {
	pool    *Pool
	page    pagedev.PageNo
	data    []byte
	pins    atomic.Int32
	ref     atomic.Bool // second-chance reference bit, set on hits
	dirty   atomic.Bool
	latch   sync.RWMutex
	ringIdx int // position in its shard's ring; under shard.mu

	// pageLSN is the LSN of the last log record covering this page;
	// write-back waits for the log to be durable through it. fresh
	// marks a page allocated via GetNew whose first logged change must
	// be a full image; logEpoch is the checkpoint epoch of the last
	// log record (fresh and logEpoch are touched only under the
	// exclusive latch).
	pageLSN  atomic.Uint64
	fresh    bool
	logEpoch uint64
}

// New creates a pool of numFrames frames over dev.
func New(dev pagedev.Device, numFrames int) (*Pool, error) {
	if numFrames < 1 {
		return nil, ErrNoFrames
	}
	p := &Pool{dev: dev, capacity: numFrames}
	p.snapPool.New = func() any { return &snapshot{buf: make([]byte, dev.PageSize())} }
	for i := range p.shards {
		p.shards[i].frames = make(map[pagedev.PageNo]*Frame)
	}
	p.verify.Store(true)
	return p, nil
}

// NewSized creates a pool whose total frame memory is approximately
// bufBytes (at least one frame), matching the paper's "2 MB buffer".
func NewSized(dev pagedev.Device, bufBytes int) (*Pool, error) {
	n := bufBytes / dev.PageSize()
	if n < 1 {
		n = 1
	}
	return New(dev, n)
}

// SetVerifyChecksums toggles checksum verification on physical reads.
func (p *Pool) SetVerifyChecksums(v bool) { p.verify.Store(v) }

// AttachWAL connects a write-ahead log. Must be called before any
// mutation traffic; from then on every EndUpdate/LogImage appends a
// log record and write-back enforces the WAL rule.
func (p *Pool) AttachWAL(w *wal.Writer) {
	p.wal = w
	// Epochs start at 1: frames begin at logEpoch 0, so every page's
	// first logged change — including pages loaded from disk before
	// any checkpoint — carries its full before-image.
	p.walEpoch.Store(1)
}

// WAL returns the attached log writer (nil when logging is off).
func (p *Pool) WAL() *wal.Writer { return p.wal }

// AdvanceWALEpoch starts a new checkpoint epoch: the next logged
// change to any frame carries a full before-image. Called by the
// checkpoint once its record may be in the log, whether or not the log
// reset behind it succeeded: recovery replays nothing in front of that
// record.
func (p *Pool) AdvanceWALEpoch() { p.walEpoch.Add(1) }

// Capacity returns the number of frames in the pool.
func (p *Pool) Capacity() int { return p.capacity }

// Device returns the underlying page device.
func (p *Pool) Device() pagedev.Device { return p.dev }

// shardOf returns the shard holding page pn.
func (p *Pool) shardOf(pn pagedev.PageNo) *shard {
	return &p.shards[uint64(pn)%numShards]
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	return Stats{
		LogicalReads: p.logicalReads.Load(),
		Hits:         p.hits.Load(),
		PhysReads:    p.physReads.Load(),
		PhysWrites:   p.physWrites.Load(),
		Evictions:    p.evictions.Load(),
		LatchWaits:   p.latchWaits.Load(),

		CoalescedWriteRuns: p.coalescedRuns.Load(),
	}
}

// ResetStats zeroes the pool counters.
func (p *Pool) ResetStats() {
	p.logicalReads.Store(0)
	p.hits.Store(0)
	p.physReads.Store(0)
	p.physWrites.Store(0)
	p.evictions.Store(0)
	p.latchWaits.Store(0)
	p.coalescedRuns.Store(0)
}

// AttachTelemetry registers the pool's counters with a metrics
// registry. The counters are the pool's own — registration installs
// read-only views, so the hot path never changes.
func (p *Pool) AttachTelemetry(reg *telemetry.Registry) {
	reg.Func("buffer.logical_reads", p.logicalReads.Load)
	reg.Func("buffer.hits", p.hits.Load)
	reg.Func("buffer.misses", func() int64 { return p.logicalReads.Load() - p.hits.Load() })
	reg.Func("buffer.phys_reads", p.physReads.Load)
	reg.Func("buffer.phys_writes", p.physWrites.Load)
	reg.Func("buffer.evictions", p.evictions.Load)
	reg.Func("buffer.latch_waits", p.latchWaits.Load)
	reg.Func("buffer.resident_frames", func() int64 { return p.size.Load() })
	reg.Func("buffer.io_retries", p.retry.Retries)
	reg.Func("buffer.coalesced_write_runs", p.coalescedRuns.Load)
}

// IORetries returns the number of transient device errors the pool has
// absorbed by retrying (each costed one backoff, none failed a caller).
func (p *Pool) IORetries() int64 { return p.retry.Retries() }

// Get pins the frame for page pn, reading it from the device on a miss.
func (p *Pool) Get(pn pagedev.PageNo) (*Frame, error) {
	return p.get(pn, true)
}

// GetNew pins a frame for a freshly allocated page without reading the
// device. The frame contents are zeroed; the caller is expected to format
// and dirty the page.
func (p *Pool) GetNew(pn pagedev.PageNo) (*Frame, error) {
	return p.get(pn, false)
}

func (p *Pool) get(pn pagedev.PageNo, read bool) (*Frame, error) {
	p.logicalReads.Add(1)
	sh := p.shardOf(pn)

	// Hit path: shared shard lock, atomic pin. No pool-wide lock.
	sh.mu.RLock()
	if f, ok := sh.frames[pn]; ok {
		f.pins.Add(1)
		f.ref.Store(true)
		sh.mu.RUnlock()
		p.hits.Add(1)
		return f, nil
	}
	sh.mu.RUnlock()

	// Miss: reserve a frame slot against the capacity, evicting as
	// needed, then load under the shard's exclusive lock. Holding the
	// shard lock across the device read stalls same-shard hits for the
	// duration of one I/O — accepted: it keeps load failures trivially
	// consistent (no half-loaded frame is ever visible), misses are
	// about to pay the I/O anyway, and the other 15 shards stay hot.
	for {
		n := p.size.Load()
		if n >= int64(p.capacity) {
			if err := p.evictOne(); err != nil {
				return nil, err
			}
			continue
		}
		if p.size.CompareAndSwap(n, n+1) {
			break
		}
	}

	sh.mu.Lock()
	if f, ok := sh.frames[pn]; ok {
		// Raced with another loader of the same page: use theirs.
		f.pins.Add(1)
		f.ref.Store(true)
		sh.mu.Unlock()
		p.size.Add(-1)
		p.hits.Add(1)
		return f, nil
	}
	f := &Frame{pool: p, page: pn, data: p.takeImage(!read), fresh: !read}
	f.pins.Store(1)
	if read {
		if err := p.loadInto(f); err != nil {
			sh.mu.Unlock()
			p.size.Add(-1)
			p.recycle(f)
			return nil, err
		}
	}
	sh.frames[pn] = f
	f.ringIdx = len(sh.ring)
	sh.ring = append(sh.ring, f)
	sh.mu.Unlock()
	return f, nil
}

// maxSpareImages bounds the evicted page images kept for reuse. An
// eviction is normally followed by the load it made room for, which
// takes the image straight back, so the list rarely holds more than one
// per goroutine missing at the moment.
const maxSpareImages = 8

// takeImage returns a page-sized buffer for a new frame: the image of
// an evicted frame when one is spare, a fresh allocation otherwise.
// Loads overwrite every byte; GetNew promises zeroes, so zero asks for
// a recycled image to be cleared.
func (p *Pool) takeImage(zero bool) []byte {
	p.spareMu.Lock()
	var img []byte
	if n := len(p.spare); n > 0 {
		img = p.spare[n-1]
		p.spare[n-1] = nil
		p.spare = p.spare[:n-1]
	}
	p.spareMu.Unlock()
	if img == nil {
		return make([]byte, p.dev.PageSize())
	}
	if zero {
		clear(img)
	}
	return img
}

// recycle takes the image of a frame nothing can reach any more — off
// the page table (or never on it) with no pins — and leaves the frame
// without one: a caller still holding the *Frame after its last Release
// faults on the nil image instead of reading whichever page moved in.
// That is also why images are recycled and Frames are not.
func (p *Pool) recycle(f *Frame) {
	img := f.data
	f.data = nil
	p.spareMu.Lock()
	if len(p.spare) < maxSpareImages {
		p.spare = append(p.spare, img)
	}
	p.spareMu.Unlock()
}

// loadInto fills f.data for page f.page with one device read and,
// when verification is on, checks the page checksum before the caller
// may see it.
func (p *Pool) loadInto(f *Frame) error {
	pn := f.page
	if err := p.retry.Do(func() error { return p.dev.Read(pn, f.data) }); err != nil {
		return err
	}
	p.physReads.Add(1)
	if p.verify.Load() {
		if err := pageformat.VerifyChecksum(f.data); err != nil {
			return fmt.Errorf("%w: page %d: %v", ErrCorrupted, pn, err)
		}
	}
	return nil
}

// Touch registers a logical access to a page without keeping it pinned.
// Upper-level caches call this so their hits still exercise the buffer
// (and pay physical I/O if the page was evicted).
func (p *Pool) Touch(pn pagedev.PageNo) error {
	f, err := p.Get(pn)
	if err != nil {
		return err
	}
	f.Release()
	return nil
}

// evictOne removes one unpinned frame, writing it back if dirty. The
// clock sweep visits shards round-robin from the persisted hand
// position; within a shard it advances that shard's hand, clearing
// reference bits of unpinned frames it passes and evicting the first
// unpinned frame whose bit is already clear. Two full cycles normally
// find one, but a concurrent reader can re-reference every frame between
// the passes; if they passed over unpinned frames, a third cycle takes
// the first unpinned frame whatever its bit. Only a cycle that found
// every frame pinned ends in ErrPoolFull.
func (p *Pool) evictOne() error {
	p.evictMu.Lock()
	defer p.evictMu.Unlock()
	if p.size.Load() < int64(p.capacity) {
		// Another eviction (or a failed load) made room meanwhile.
		return nil
	}
	// First pass prefers victims whose write-back needs no log sync
	// (clean frames, or dirty ones the log already covers): evicting a
	// freshly-logged page forces an fsync under the WAL rule, and during
	// a bulk load the pool is full of older, already-durable pages that
	// cost nothing to drop.
	if p.wal != nil {
		durableLSN := p.wal.SyncedLSN()
		for i := 0; i < numShards; i++ {
			sh := &p.shards[p.handShard]
			evicted, _, err := p.sweepShard(sh, durableLSN, false)
			if err != nil {
				return err
			}
			if evicted {
				return nil
			}
			p.handShard = (p.handShard + 1) % numShards
		}
	}
	unpinned := false
	for cycle := 0; cycle < 3; cycle++ {
		force := cycle == 2
		if force && !unpinned {
			break
		}
		for i := 0; i < numShards; i++ {
			sh := &p.shards[p.handShard]
			evicted, saw, err := p.sweepShard(sh, 0, force)
			if err != nil {
				return err
			}
			if evicted {
				return nil
			}
			unpinned = unpinned || saw
			p.handShard = (p.handShard + 1) % numShards
		}
	}
	return ErrPoolFull
}

// sweepShard advances the shard's clock hand over its ring once,
// evicting the first second-chance victim it finds: the victim is
// written back if dirty, unlinked, and its image recycled for the next
// miss. A non-zero durableLSN (the log's SyncedLSN) makes the pass
// selective: dirty frames the log does not yet cover — their last
// record starts at or past durableLSN — are passed over (their
// reference bits untouched), so a cheaper victim can be found before
// paying for a log sync. force takes the first unpinned frame without
// looking at its reference bit. unpinned reports whether the pass came
// by any unpinned frame, victim or not. Caller holds evictMu.
func (p *Pool) sweepShard(sh *shard, durableLSN wal.LSN, force bool) (evicted, unpinned bool, err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n := len(sh.ring)
	for i := 0; i < n; i++ {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		f := sh.ring[sh.hand]
		if f.pins.Load() > 0 {
			sh.hand++
			continue
		}
		unpinned = true
		if durableLSN > 0 && f.dirty.Load() && wal.LSN(f.pageLSN.Load()) >= durableLSN {
			sh.hand++
			continue
		}
		if !force && f.ref.CompareAndSwap(true, false) {
			sh.hand++
			continue
		}
		// Victim: write back if dirty, then drop. No pins and the shard
		// lock is held, so no caller can hold the frame's latch or pin
		// it concurrently.
		if f.dirty.Load() {
			if err := p.writeBack(f); err != nil {
				return false, true, err
			}
		}
		delete(sh.frames, f.page)
		last := len(sh.ring) - 1
		sh.ring[f.ringIdx] = sh.ring[last]
		sh.ring[f.ringIdx].ringIdx = f.ringIdx
		sh.ring = sh.ring[:last]
		if sh.hand > last {
			sh.hand = 0
		}
		p.recycle(f)
		p.size.Add(-1)
		p.evictions.Add(1)
		return true, true, nil
	}
	return false, unpinned, nil
}

// writeBack flushes one frame's bytes to the device. The caller must
// guarantee exclusive access to the frame data (shard lock with zero
// pins, or the frame's exclusive latch): refreshing the checksum
// mutates the page image. With a log attached, the write waits for the
// log to be durable through the frame's page LSN — the WAL rule.
func (p *Pool) writeBack(f *Frame) error {
	if p.wal != nil {
		if lsn := f.pageLSN.Load(); lsn > 0 {
			if err := p.wal.FlushTo(wal.LSN(lsn)); err != nil {
				return err
			}
		}
	}
	if pageformat.TypeOf(f.data) != pageformat.TypeInvalid {
		pageformat.UpdateChecksum(f.data)
	}
	if err := p.retry.Do(func() error { return p.dev.Write(f.page, f.data) }); err != nil {
		return err
	}
	p.physWrites.Add(1)
	f.dirty.Store(false)
	return nil
}

// FlushAll writes every dirty frame back to the device and syncs it.
// Frames stay cached and pins are unaffected. Dirty pages are written in
// ascending page order (elevator order), as any real write-back cache
// would, which matters to the simulated disk's seek accounting. Each
// frame is written under its exclusive latch, so a flush concurrent
// with page mutations sees page-atomic states.
func (p *Pool) FlushAll() error {
	// One log sync up front satisfies the WAL rule for every frame
	// below, instead of per-frame syncs in page order.
	if p.wal != nil {
		if err := p.wal.Sync(); err != nil {
			return err
		}
	}
	dirty := p.pinDirty()
	err := p.flushPinned(dirty)
	if err != nil {
		return err
	}
	return p.dev.Sync()
}

// pinDirty collects and pins every currently-dirty frame, sorted by
// page number.
func (p *Pool) pinDirty() []*Frame {
	var dirty []*Frame
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.RLock()
		for _, f := range sh.frames {
			if f.dirty.Load() {
				f.pins.Add(1)
				dirty = append(dirty, f)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].page < dirty[j].page })
	return dirty
}

// maxCoalesce caps the pages merged into one vectored write. It bounds
// the run copy buffer and how long a flush holds multiple frame latches
// at once.
const maxCoalesce = 32

// flushPinned writes back the given pinned frames (sorted by page
// number) and unpins them all, returning the first write error. Runs
// of adjacent dirty pages are merged into single vectored writes: a
// checkpoint of a freshly loaded document flushes hundreds of
// consecutive pages, and one pagedev.WriteRange per run replaces one
// syscall (and one simulated seek) per page.
func (p *Pool) flushPinned(frames []*Frame) error {
	var (
		firstErr error
		buf      []byte
	)
	ps := p.dev.PageSize()
	for i := 0; i < len(frames); {
		j := i + 1
		for j < len(frames) && j-i < maxCoalesce && frames[j].page == frames[j-1].page+1 {
			j++
		}
		run := frames[i:j]
		i = j
		if firstErr != nil {
			for _, f := range run {
				f.Release()
			}
			continue
		}
		if len(run) == 1 {
			f := run[0]
			f.latch.Lock()
			if f.dirty.Load() {
				if err := p.writeBack(f); err != nil {
					firstErr = err
				}
			}
			f.latch.Unlock()
			f.Release()
			continue
		}
		if buf == nil {
			buf = make([]byte, maxCoalesce*ps)
		}
		// Latch the whole run (frames arrive in ascending page order, so
		// the acquisition order is deterministic) so the vectored write
		// captures a page-atomic state of every frame in it.
		for _, f := range run {
			f.latch.Lock()
		}
		if err := p.writeBackRun(run, buf); err != nil {
			firstErr = err
		}
		for k := len(run) - 1; k >= 0; k-- {
			run[k].latch.Unlock()
		}
		for _, f := range run {
			f.Release()
		}
	}
	return firstErr
}

// writeBackRun flushes a run of frames imaging adjacent pages with one
// vectored device write. The caller must guarantee exclusive access to
// every frame's data (latches held, or all shard locks with zero
// pins): checksum refresh mutates the page images. The WAL rule is
// honored for the run as a whole with one FlushTo through the highest
// page LSN in it.
func (p *Pool) writeBackRun(run []*Frame, buf []byte) error {
	if p.wal != nil {
		var maxLSN uint64
		for _, f := range run {
			if lsn := f.pageLSN.Load(); lsn > maxLSN {
				maxLSN = lsn
			}
		}
		if maxLSN > 0 {
			if err := p.wal.FlushTo(wal.LSN(maxLSN)); err != nil {
				return err
			}
		}
	}
	ps := p.dev.PageSize()
	for k, f := range run {
		if pageformat.TypeOf(f.data) != pageformat.TypeInvalid {
			pageformat.UpdateChecksum(f.data)
		}
		copy(buf[k*ps:(k+1)*ps], f.data)
	}
	start := run[0].page
	n := len(run) * ps
	if err := p.retry.Do(func() error { return pagedev.WriteRange(p.dev, start, buf[:n]) }); err != nil {
		return err
	}
	p.physWrites.Add(int64(len(run)))
	p.coalescedRuns.Inc()
	for _, f := range run {
		f.dirty.Store(false)
	}
	return nil
}

// lockAll takes every shard lock (in index order; Clear is the only
// multi-shard locker, so the order only matters for consistency).
func (p *Pool) lockAll() {
	for i := range p.shards {
		p.shards[i].mu.Lock()
	}
}

func (p *Pool) unlockAll() {
	for i := len(p.shards) - 1; i >= 0; i-- {
		p.shards[i].mu.Unlock()
	}
}

// Clear flushes all dirty frames and then empties the pool. It fails with
// ErrPinned if any frame is still pinned. The paper clears the buffer at
// the start of each measured operation.
func (p *Pool) Clear() error {
	if p.wal != nil {
		if err := p.wal.Sync(); err != nil {
			return err
		}
	}
	p.lockAll()
	defer p.unlockAll()
	var dirty []*Frame
	for i := range p.shards {
		for pn, f := range p.shards[i].frames {
			if n := f.pins.Load(); n > 0 {
				return fmt.Errorf("%w: page %d (%d pins)", ErrPinned, pn, n)
			}
			if f.dirty.Load() {
				dirty = append(dirty, f)
			}
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].page < dirty[j].page })
	var buf []byte
	ps := p.dev.PageSize()
	for i := 0; i < len(dirty); {
		j := i + 1
		for j < len(dirty) && j-i < maxCoalesce && dirty[j].page == dirty[j-1].page+1 {
			j++
		}
		run := dirty[i:j]
		i = j
		if len(run) == 1 {
			if err := p.writeBack(run[0]); err != nil {
				return err
			}
			continue
		}
		if buf == nil {
			buf = make([]byte, maxCoalesce*ps)
		}
		// All shard locks are held and every frame is unpinned, so the
		// run frames are exclusively ours without latching.
		if err := p.writeBackRun(run, buf); err != nil {
			return err
		}
	}
	if err := p.dev.Sync(); err != nil {
		return err
	}
	var removed int64
	for i := range p.shards {
		sh := &p.shards[i]
		removed += int64(len(sh.frames))
		sh.frames = make(map[pagedev.PageNo]*Frame)
		sh.ring = nil
		sh.hand = 0
	}
	// Subtract what was dropped rather than zeroing: a concurrent miss
	// may have reserved a slot in size and be waiting on a shard lock,
	// and that reservation must survive the clear.
	p.size.Add(-removed)
	return nil
}

// Cached returns the number of frames currently held (pinned or not).
func (p *Pool) Cached() int { return int(p.size.Load()) }

// Resident reports whether page pn currently has a frame in the pool.
// The integrity scrubber skips resident pages: their frame is the
// authoritative copy and the device bytes may be legitimately stale.
func (p *Pool) Resident(pn pagedev.PageNo) bool {
	sh := p.shardOf(pn)
	sh.mu.RLock()
	_, ok := sh.frames[pn]
	sh.mu.RUnlock()
	return ok
}

// Restore installs img as the content of page pn, bypassing the frame
// path: the checksum is refreshed on a private copy and the page is
// written straight to the device. It is the repair primitive — the
// scrubber calls it with a WAL-reconstructed image after the device
// copy failed verification. Restoring a resident page is refused: a
// frame in the pool means the page is live and its bytes authoritative,
// and a scrubber honoring Resident never gets here.
func (p *Pool) Restore(pn pagedev.PageNo, img []byte) error {
	if len(img) != p.dev.PageSize() {
		return fmt.Errorf("buffer: restore page %d: image size %d, want %d", pn, len(img), p.dev.PageSize())
	}
	if p.Resident(pn) {
		return fmt.Errorf("buffer: restore page %d: page is resident", pn)
	}
	buf := make([]byte, len(img))
	copy(buf, img)
	if pageformat.TypeOf(buf) != pageformat.TypeInvalid {
		pageformat.UpdateChecksum(buf)
	}
	if err := p.retry.Do(func() error { return p.dev.Write(pn, buf) }); err != nil {
		return err
	}
	p.physWrites.Add(1)
	return p.dev.Sync()
}

// Page returns the page number this frame images.
func (f *Frame) Page() pagedev.PageNo { return f.page }

// Data returns the page image. Mutations must be followed by MarkDirty.
// The slice is valid only while the frame is pinned; concurrent users
// must hold the frame latch (shared to read, exclusive to mutate). Once
// the frame has been evicted Data returns nil.
func (f *Frame) Data() []byte { return f.data }

// MarkDirty records that the frame differs from the on-device page.
func (f *Frame) MarkDirty() { f.dirty.Store(true) }

// RLatch acquires the frame latch shared, for reading the page bytes.
// A blocked acquisition (a writer holds or awaits the latch) counts as
// a latch wait; the try-first fast path keeps the uncontended case at
// one atomic.
func (f *Frame) RLatch() {
	if f.latch.TryRLock() {
		return
	}
	f.pool.latchWaits.Inc()
	f.latch.RLock()
}

// RUnlatch releases a shared latch.
func (f *Frame) RUnlatch() { f.latch.RUnlock() }

// Latch acquires the frame latch exclusively, for mutating the page
// bytes. Blocked acquisitions count as latch waits.
func (f *Frame) Latch() {
	if f.latch.TryLock() {
		return
	}
	f.pool.latchWaits.Inc()
	f.latch.Lock()
}

// Unlatch releases an exclusive latch.
func (f *Frame) Unlatch() { f.latch.Unlock() }

// Release unpins the frame. The frame becomes eligible for eviction once
// its pin count reaches zero. Releasing an unpinned frame panics: it
// indicates a pin-accounting bug in the caller.
func (f *Frame) Release() {
	if f.pins.Add(-1) < 0 {
		panic(ErrReleased)
	}
}

// Window is a byte span of a page that a bracketed mutation may change.
type Window = pageformat.Span

// snapshot is the before-state of one update bracket: the bytes of the
// declared windows (or of the whole page), plus the scratch the diff
// fills. Snapshots are pooled by pointer, so a bracket allocates nothing.
type snapshot struct {
	buf    []byte      // one page
	win    []Window    // declared windows; empty = the whole page
	full   bool        // buf images the whole page, not the packed windows
	ranges []wal.Range // diff output, consumed before the snapshot is reused

	// A BeginShift bracket: shift.Delta != 0, win[:small] are the windows
	// beside the shift, and logShift says EndUpdate appends a shift record.
	// If it does not (no image of the page in this epoch's log) or checking
	// mode is on, the snapshot is the whole page and declares the shift's
	// body behind the windows; otherwise it is packed and holds the bytes
	// the shift destroys behind the windows' bytes.
	shift    Shift
	small    int
	logShift bool

	replay []byte // checking mode's page to replay log records on
}

// Update is the token BeginUpdate hands out and EndUpdate consumes. It
// carries the pre-mutation snapshot the log diff runs against.
type Update struct {
	snap *snapshot
}

// BeginUpdate prepares a logged mutation of the frame's page. The
// caller must hold the exclusive latch, mutate Data(), and finish with
// EndUpdate — which logs the change and marks the frame dirty (the
// MarkDirty call disappears into it). Without an attached log the pair
// degenerates to a plain MarkDirty.
//
// A caller that knows which bytes it may touch states them as windows
// (disjoint, inside the page): only those are copied here and compared
// in EndUpdate, so a small change to a large page costs what it changes.
// No windows means the whole page. Bytes outside the declared windows
// must not change; checking mode (tests and -race builds) verifies it.
// The first change after a checkpoint needs the page's before-image and
// snapshots the whole page whatever was declared.
func (f *Frame) BeginUpdate(windows ...Window) Update {
	p := f.pool
	check := checkWindows && len(windows) > 0
	if p.wal == nil && !check || f.fresh {
		// Nothing to log against; fresh pages log a full image in EndUpdate.
		return Update{}
	}
	s := p.snapPool.Get().(*snapshot)
	s.win = append(s.win[:0], windows...)
	s.shift, s.logShift = Shift{}, false
	s.full = len(windows) == 0 || check || f.logEpoch != p.walEpoch.Load()
	s.pack(f.data)
	return Update{snap: s}
}

// pack copies the before-bytes into the snapshot: the whole page, or
// the declared windows one behind the other. It returns the bytes used.
func (s *snapshot) pack(data []byte) int {
	if s.full {
		return copy(s.buf, data)
	}
	at := 0
	for _, w := range s.win {
		at += copy(s.buf[at:], data[w.Off:w.Off+w.Len])
	}
	return at
}

// Shift is an in-place insert or removal inside a cell, declared to
// BeginShift.
type Shift = pageformat.Shift

// BeginShift is BeginUpdate for a mutation that is a shift — sh.Tail
// bytes at sh.Off move by sh.Delta, the gap an insert opens is filled —
// and otherwise changes only the small windows. When the page already
// has its image in this checkpoint epoch's log, the bracket snapshots
// the windows and the |Delta| bytes the move destroys, and EndUpdate
// logs a shift record: neither sees the tail. Otherwise (the page's
// first change of the epoch, which must carry the whole before-image
// anyway) it is BeginUpdate over the windows and the shift's body.
// Checking mode snapshots the whole page either way and EndUpdate
// replays the shift record against it, logged or not.
func (f *Frame) BeginShift(sh Shift, windows ...Window) Update {
	p := f.pool
	if p.wal == nil && !checkWindows || f.fresh {
		return Update{}
	}
	s := p.snapPool.Get().(*snapshot)
	s.win = append(s.win[:0], windows...)
	s.shift, s.small = sh, len(windows)
	s.logShift = p.wal != nil && f.logEpoch == p.walEpoch.Load()
	s.full = checkWindows || !s.logShift
	if s.full {
		s.win = append(s.win, sh.Body())
	}
	at := s.pack(f.data)
	if !s.full {
		d := sh.Destroyed()
		copy(s.buf[at:], f.data[d.Off:d.Off+d.Len])
	}
	return Update{snap: s}
}

// EndUpdate closes a BeginUpdate or BeginShift bracket: it diffs the
// page against the snapshot, appends the matching log record (full
// image for fresh pages, before-image + ranges on the first
// post-checkpoint change, a shift where one was declared and may be
// logged, plain ranges otherwise), stamps the record's LSN into the
// page header, and marks the frame dirty. A mutation that turned out to
// be a no-op logs nothing and leaves the frame clean.
func (f *Frame) EndUpdate(u Update) error {
	p := f.pool
	s := u.snap
	var rec wal.Record
	if s != nil {
		defer p.snapPool.Put(s)
		if checkWindows {
			if err := s.checkOutside(f.data); err != nil {
				return fmt.Errorf("page %d: %w", f.page, err)
			}
		}
		if s.logShift || checkWindows && s.shift.Delta != 0 {
			rec = s.shiftRecord(f)
			if err := s.checkReplay(&rec, f.data); err != nil {
				return err
			}
		}
	}
	if p.wal == nil {
		f.MarkDirty()
		return nil
	}
	if f.fresh {
		return f.logImage()
	}
	epoch := p.walEpoch.Load()
	var (
		lsn wal.LSN
		err error
	)
	if s.logShift {
		lsn, err = p.wal.AppendShift(f.page, rec.Shift, rec.Ranges)
	} else {
		rec = wal.Record{Type: wal.RecUpdate, Page: f.page, Ranges: s.diff(f.data, s.win)}
		if len(rec.Ranges) == 0 {
			return nil
		}
		if f.logEpoch != epoch {
			rec.Type, rec.BeforeImage = wal.RecFirstUpdate, s.buf
		}
		if err := s.checkReplay(&rec, f.data); err != nil {
			return err
		}
		if rec.Type == wal.RecFirstUpdate {
			lsn, err = p.wal.AppendFirstUpdate(f.page, s.buf, rec.Ranges)
		} else {
			lsn, err = p.wal.AppendUpdate(f.page, rec.Ranges)
		}
	}
	if err != nil {
		return err
	}
	f.stampLocked(lsn, epoch)
	return nil
}

// shiftRecord builds the shift record of a BeginShift bracket from the
// mutated page: the small windows' diff, the bytes now in the gap, and
// the destroyed bytes from the snapshot. It aliases both.
func (s *snapshot) shiftRecord(f *Frame) wal.Record {
	sh := s.shift
	ranges := s.diff(f.data, s.win[:s.small])
	d := sh.Destroyed()
	if !s.full {
		d.Off = 0 // packed behind the windows' bytes
		for _, w := range s.win {
			d.Off += w.Len
		}
	}
	ws := wal.Shift{Shift: sh, Del: s.buf[d.Off : d.Off+d.Len]}
	if sh.Delta > 0 {
		ws.Ins = f.data[sh.Off : sh.Off+sh.Delta]
	}
	return wal.Record{Type: wal.RecShift, Page: f.page, Shift: ws, Ranges: ranges}
}

// CancelUpdate abandons a BeginUpdate bracket without logging, for
// callers whose mutation turned out not to happen (e.g. an insert the
// page refused). The page must be byte-identical to the snapshot.
func (f *Frame) CancelUpdate(u Update) {
	if u.snap != nil {
		f.pool.snapPool.Put(u.snap)
	}
}

// diff computes the changed byte ranges of data against the snapshot:
// over the whole page, or window by window over win, a prefix of the
// declared windows. The ranges alias the snapshot and data and live in
// the snapshot's scratch.
func (s *snapshot) diff(data []byte, win []Window) []wal.Range {
	out := s.ranges[:0]
	if len(s.win) == 0 {
		out = diffRanges(out, s.buf, data, 0)
	}
	at := 0
	for _, w := range win {
		old := s.buf[at : at+w.Len]
		if s.full {
			old = s.buf[w.Off : w.Off+w.Len]
		}
		out = diffRanges(out, old, data[w.Off:w.Off+w.Len], w.Off)
		at += w.Len
	}
	s.ranges = out
	return out
}

// ErrOutsideWindow reports a bracketed mutation that changed a byte it
// had not declared (checking mode only).
var ErrOutsideWindow = errors.New("buffer: page changed outside the declared update windows")

// ErrReplayMismatch reports an update whose log record does not replay
// to the bytes the update wrote, or does not undo to the bytes it found
// (checking mode only).
var ErrReplayMismatch = errors.New("buffer: log record does not replay to the page the update wrote")

// checkReplay is the checking mode of the log records themselves: redo
// of rec on the whole-page snapshot must give the page byte for byte,
// and undo of rec on the page must give the snapshot back.
func (s *snapshot) checkReplay(rec *wal.Record, data []byte) error {
	if !checkWindows || !s.full {
		return nil
	}
	s.replay = append(s.replay[:0], s.buf...)
	page := s.replay
	if err := rec.Redo(page); err != nil {
		return fmt.Errorf("page %d: %w: redo: %v", rec.Page, ErrReplayMismatch, err)
	}
	if i := firstDiff(page, data, 0); i < len(data) {
		return fmt.Errorf("page %d: %w: redo of the %s record differs at byte %d", rec.Page, ErrReplayMismatch, wal.TypeName(rec.Type), i)
	}
	if err := rec.Undo(page); err != nil {
		return fmt.Errorf("page %d: %w: undo: %v", rec.Page, ErrReplayMismatch, err)
	}
	if !bytes.Equal(page, s.buf) {
		return fmt.Errorf("page %d: %w: undo of the %s record does not restore the page", rec.Page, ErrReplayMismatch, wal.TypeName(rec.Type))
	}
	return nil
}

// checkOutside is the checking mode of windowed brackets: the whole-page
// diff against the full snapshot must fall inside the declared windows.
func (s *snapshot) checkOutside(data []byte) error {
	if len(s.win) == 0 || !s.full {
		return nil
	}
	for _, r := range diffRanges(nil, s.buf, data, 0) {
		for i := range r.Before {
			if r.Before[i] != r.After[i] && !s.declared(r.Off+i) {
				return fmt.Errorf("%w: byte %d, windows %v", ErrOutsideWindow, r.Off+i, s.win)
			}
		}
	}
	return nil
}

// declared reports whether page offset off lies in a declared window.
func (s *snapshot) declared(off int) bool {
	for _, w := range s.win {
		if off >= w.Off && off < w.Off+w.Len {
			return true
		}
	}
	return false
}

// LogImage logs the frame's full current contents as a fresh-page
// image record and marks it dirty. Only valid for pages the running
// operation allocated (restart undo deallocates them): the bulk
// loader's batch writer uses it to log each packed page exactly once.
func (f *Frame) LogImage() error {
	if f.pool.wal == nil {
		f.MarkDirty()
		return nil
	}
	return f.logImage()
}

func (f *Frame) logImage() error {
	p := f.pool
	lsn, err := p.wal.AppendImage(f.page, f.data)
	if err != nil {
		return err
	}
	f.stampLocked(lsn, p.walEpoch.Load())
	return nil
}

// stampLocked records a logged change: page-header LSN, frame LSN,
// epoch, dirty. Caller holds the exclusive latch.
func (f *Frame) stampLocked(lsn wal.LSN, epoch uint64) {
	f.fresh = false
	f.logEpoch = epoch
	pageformat.SetPageLSN(f.data, uint64(lsn))
	f.pageLSN.Store(uint64(lsn))
	f.MarkDirty()
}

// diff tuning: runs of differing bytes closer than mergeGap coalesce
// into one range (each range costs 4 directory bytes plus double its
// length); more than maxRanges runs collapse into a single span.
const (
	mergeGap  = 16
	maxRanges = 64
)

// diffRanges appends to out the changed byte spans between old and new,
// two images of the page bytes starting at offset base. The ranges alias
// both slices; they must be consumed (the log serializes them) before
// either buffer is reused. Both the skip over equal bytes and the scan of
// a changed run go a word at a time: an update touches one record, so
// most of the page is an equal run.
func diffRanges(out []wal.Range, old, new []byte, base int) []wal.Range {
	first := len(out)
	n := len(old)
	new = new[:n]
	for i := firstDiff(old, new, 0); i < n; {
		// The run absorbs every later differing byte that lies fewer than
		// mergeGap bytes past its end so far.
		end := i + 1
		for {
			m := lastDiff(old, new, end, min(end+mergeGap, n))
			if m < 0 {
				break
			}
			end = m + 1
		}
		out = append(out, wal.Range{Off: base + i, Before: old[i:end], After: new[i:end]})
		i = firstDiff(old, new, min(end+mergeGap, n))
	}
	if len(out)-first > maxRanges {
		lo := out[first].Off - base
		hi := out[len(out)-1].Off - base + len(out[len(out)-1].Before)
		out = append(out[:first], wal.Range{Off: base + lo, Before: old[lo:hi], After: new[lo:hi]})
	}
	return out
}

// firstDiff returns the index of the first byte at or after i where a
// and b differ, or len(a) if there is none. len(b) must equal len(a).
func firstDiff(a, b []byte, i int) int {
	n := len(a)
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for ; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// lastDiff returns the index of the last byte in [lo, hi) where a and b
// differ, or -1 if there is none.
func lastDiff(a, b []byte, lo, hi int) int {
	for ; hi-lo >= 8; hi -= 8 {
		if x := binary.LittleEndian.Uint64(a[hi-8:]) ^ binary.LittleEndian.Uint64(b[hi-8:]); x != 0 {
			return hi - 1 - bits.LeadingZeros64(x)/8
		}
	}
	for hi--; hi >= lo; hi-- {
		if a[hi] != b[hi] {
			return hi
		}
	}
	return -1
}

// ShrinkTo deallocates every page at or above n: resident frames are
// dropped (they must be unpinned), a shrink record is logged, and the
// device is truncated. Operation rollback calls it to return the
// device to its pre-operation size. All shard locks are held across
// the check-then-drop so a pinned frame fails the call before any
// frame (with possibly newer dirty bytes) has been discarded.
func (p *Pool) ShrinkTo(n pagedev.PageNo) error {
	p.lockAll()
	for i := range p.shards {
		for pn, f := range p.shards[i].frames {
			if pn < n {
				continue
			}
			if c := f.pins.Load(); c > 0 {
				p.unlockAll()
				return fmt.Errorf("%w: page %d (%d pins)", ErrPinned, pn, c)
			}
		}
	}
	for i := range p.shards {
		sh := &p.shards[i]
		for pn, f := range sh.frames {
			if pn < n {
				continue
			}
			delete(sh.frames, pn)
			last := len(sh.ring) - 1
			sh.ring[f.ringIdx] = sh.ring[last]
			sh.ring[f.ringIdx].ringIdx = f.ringIdx
			sh.ring = sh.ring[:last]
			if sh.hand > last {
				sh.hand = 0
			}
			p.size.Add(-1)
		}
	}
	p.unlockAll()
	if p.wal != nil {
		if _, err := p.wal.AppendShrink(uint64(n)); err != nil {
			return err
		}
	}
	return p.dev.Shrink(n)
}
