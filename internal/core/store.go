package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"natix/internal/dict"
	"natix/internal/noderep"
	"natix/internal/pagedev"
	"natix/internal/records"
	"natix/internal/telemetry"
)

// Config tunes the tree storage manager.
type Config struct {
	// SplitTarget is the desired fraction of a split record's bytes that
	// end up in the left partition (§3.2.2). The paper's experiments use
	// 1/2. Values must lie in (0, 1); 0 means "use the default" (0.5).
	SplitTarget float64

	// SplitTolerance is the minimum subtree size, in bytes, that the
	// separator descent is allowed to split. Subtrees smaller than this
	// move whole into one partition ("set to 1/10th of a page" in §4.2).
	// 0 means one tenth of the net page capacity.
	SplitTolerance int

	// Matrix is the split matrix (§3.3). nil means all-other.
	Matrix *SplitMatrix

	// CacheRecords bounds the image cache, in records: the stored images
	// the readers read in place, each with its node table. The cache saves
	// copying and indexing CPU but never hides I/O: a hit still touches
	// the buffer manager. 0 disables it.
	CacheRecords int

	// MergeOnDelete inlines a shrunken record back into its parent
	// record when deletion leaves both small enough ("clustered nodes
	// can ... again be merged into clusters", §1). Off by default, as in
	// the paper's experiments.
	MergeOnDelete bool
}

// withDefaults fills unset fields.
func (c Config) withDefaults(maxRec int) Config {
	if c.SplitTarget <= 0 || c.SplitTarget >= 1 {
		c.SplitTarget = 0.5
	}
	if c.SplitTolerance <= 0 {
		c.SplitTolerance = maxRec / 10
	}
	if c.Matrix == nil {
		c.Matrix = AllOther()
	}
	return c
}

// Stats counts storage-manager activity.
type Stats struct {
	Splits           int64 // record splits performed
	RecordsCreated   int64
	RecordsDeleted   int64
	RecordsRewritten int64 // full re-encodes of an existing record
	RecordsSpliced   int64 // node edits written as a splice of the stored image
	ParentPatches    int64 // standalone parent-RID fixups written
	RecordsDecoded   int64 // record images decoded into trees: an edit the image cannot take, a split, a merge, WalkRecords and the decoded reference
	CountPatches     int64 // proxy counts patched in place by an edit below a scaffolding record
	CacheHits        int64 // reads served from the image cache
	CacheMisses      int64 // reads that copied and opened an image (with the cache on)
}

// Errors.
var (
	ErrNodeTooLarge = errors.New("core: node too large for a record (use an overflow literal)")
	ErrBadPath      = errors.New("core: path does not resolve to a node")
	ErrNotAggregate = errors.New("core: operation requires an aggregate node")
	ErrCannotSplit  = errors.New("core: record cannot be split further")
	ErrIsRoot       = errors.New("core: operation not allowed on the tree root")
	ErrStaleRef     = errors.New("core: record written since the reference was read")
)

// Store is the tree storage manager. Read traversals (ReadRoot,
// ReadChildren, AppendReadText, FacadeWalker, Cursor, WalkRecords) and
// the decoded reference (Root, Children) are safe for any number of
// concurrent callers: the image cache is sharded and the counters are
// atomics. Mutating operations (InsertChild, Delete, splits) are the
// writer's: they share the store's scratch, so the caller serializes all
// of them, whatever document each is on, and keeps mutators apart from
// readers of the same document — package docstore's writer mutex and
// per-document locks provide both. Readers run beside a mutator of
// another document.
type Store struct {
	rm    *records.Manager
	cfg   Config
	cache *recCache // the readers' images; nil when caching is off
	stats storeStats

	// Scratch of the (serialized) mutating operations: the layout of the
	// record last measured, the image buffer it is emitted into, the node
	// edit spliced into a stored image, the views of the records a read
	// holds, the physical path of the located node, the children on
	// either side of an insert or delete point, the insertion candidates
	// and the proxies below a deleted node.
	layout  noderep.Layout
	image   []byte
	editor  nodeEdit
	views   []*records.View
	held    records.RID // the record view 0 holds for an insert's edit; NilRID when none
	path    []int
	entries [2]childEntry
	cands   []slot
	targets []records.RID
}

// storeStats is the internal atomic form of Stats.
type storeStats struct {
	splits           atomic.Int64
	recordsCreated   atomic.Int64
	recordsDeleted   atomic.Int64
	recordsRewritten atomic.Int64
	recordsSpliced   atomic.Int64
	parentPatches    atomic.Int64
	recordsDecoded   atomic.Int64
	countPatches     atomic.Int64
	cacheHits        telemetry.ShardedCounter // every record a query reads
	cacheMisses      atomic.Int64
}

// New creates a tree storage manager over rm.
func New(rm *records.Manager, cfg Config) *Store {
	cfg = cfg.withDefaults(rm.MaxRecordSize())
	s := &Store{rm: rm, cfg: cfg}
	if cfg.CacheRecords > 0 {
		s.cache = newRecCache(cfg.CacheRecords)
	}
	return s
}

// Records exposes the underlying record manager.
func (s *Store) Records() *records.Manager { return s.rm }

// Config returns the effective configuration.
func (s *Store) Config() Config { return s.cfg }

// Stats returns a snapshot of the manager's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Splits:           s.stats.splits.Load(),
		RecordsCreated:   s.stats.recordsCreated.Load(),
		RecordsDeleted:   s.stats.recordsDeleted.Load(),
		RecordsRewritten: s.stats.recordsRewritten.Load(),
		RecordsSpliced:   s.stats.recordsSpliced.Load(),
		ParentPatches:    s.stats.parentPatches.Load(),
		RecordsDecoded:   s.stats.recordsDecoded.Load(),
		CountPatches:     s.stats.countPatches.Load(),
		CacheHits:        s.stats.cacheHits.Load(),
		CacheMisses:      s.stats.cacheMisses.Load(),
	}
}

// AttachTelemetry registers the manager's counters with a metrics
// registry as read-only views of its existing atomics.
func (s *Store) AttachTelemetry(reg *telemetry.Registry) {
	reg.Func("core.splits", s.stats.splits.Load)
	reg.Func("core.records_created", s.stats.recordsCreated.Load)
	reg.Func("core.records_deleted", s.stats.recordsDeleted.Load)
	reg.Func("core.records_rewritten", s.stats.recordsRewritten.Load)
	reg.Func("core.records_spliced", s.stats.recordsSpliced.Load)
	reg.Func("core.parent_patches", s.stats.parentPatches.Load)
	reg.Func("core.records_decoded", s.stats.recordsDecoded.Load)
	reg.Func("core.count_patches", s.stats.countPatches.Load)
	reg.Func("core.cache_hits", s.stats.cacheHits.Load)
	reg.Func("core.cache_misses", s.stats.cacheMisses.Load)
	reg.Func("core.image_cache_bytes", s.cache.footprint)
}

// ResetStats zeroes the counters.
func (s *Store) ResetStats() {
	s.stats.splits.Store(0)
	s.stats.recordsCreated.Store(0)
	s.stats.recordsDeleted.Store(0)
	s.stats.recordsRewritten.Store(0)
	s.stats.recordsSpliced.Store(0)
	s.stats.parentPatches.Store(0)
	s.stats.recordsDecoded.Store(0)
	s.stats.countPatches.Store(0)
	s.stats.cacheHits.Store(0)
	s.stats.cacheMisses.Store(0)
}

// InvalidateCache drops every cached image (e.g. after a buffer clear or
// a rollback restored pages under it).
func (s *Store) InvalidateCache() { s.cache.clear() }

// maxRecordSize is the net page capacity (§3.2.2).
func (s *Store) maxRecordSize() int { return s.rm.MaxRecordSize() }

// loadRecord decodes record rid, read where it lies (records.View), into
// a tree of the caller's own — the form a split, a merge and an edit the
// image cannot take work on — and returns where its body lies.
// noderep.Decode copies what it keeps, so nothing of the page outlives
// the view.
func (s *Store) loadRecord(rid records.RID) (*noderep.Record, records.RID, error) {
	var v records.View
	if err := s.rm.View(rid, &v); err != nil {
		return nil, records.NilRID, err
	}
	defer v.Done()
	s.stats.recordsDecoded.Add(1)
	rec, err := noderep.Decode(v.Body())
	if err != nil {
		return nil, records.NilRID, fmt.Errorf("record %s: %w", rid, err)
	}
	return rec, v.Loc(), nil
}

// measure validates rec and returns its encoded size, leaving its
// layout in the store's scratch for writeMeasured or insertMeasured.
func (s *Store) measure(rec *noderep.Record) (int, error) {
	if err := noderep.Measure(rec, &s.layout); err != nil {
		return 0, err
	}
	return s.layout.Size(), nil
}

// emitMeasured encodes rec, unchanged since the last measure call, into
// the store's image buffer. The image is valid until the next emit.
func (s *Store) emitMeasured(rec *noderep.Record) ([]byte, error) {
	if s.image == nil {
		s.image = make([]byte, 0, s.maxRecordSize())
	}
	return s.layout.Emit(s.image, rec)
}

// writeRecord re-encodes rec under its existing RID.
func (s *Store) writeRecord(rid records.RID, rec *noderep.Record) error {
	if _, err := s.measure(rec); err != nil {
		return err
	}
	return s.writeMeasured(rid, rec)
}

// writeMeasured is writeRecord for a record the caller has just measured.
func (s *Store) writeMeasured(rid records.RID, rec *noderep.Record) error {
	body, err := s.emitMeasured(rec)
	if err != nil {
		return err
	}
	return s.rewrite(rid, body)
}

// rewrite writes img as the whole new image of record rid.
func (s *Store) rewrite(rid records.RID, img []byte) error {
	s.stats.recordsRewritten.Add(1)
	s.cache.remove(rid)
	return s.rm.Update(rid, img)
}

// insertMeasured stores rec, which the caller has just measured, as a
// new record near the hint page.
func (s *Store) insertMeasured(rec *noderep.Record, near pagedev.PageNo) (records.RID, error) {
	body, err := s.emitMeasured(rec)
	if err != nil {
		return records.NilRID, err
	}
	rid, err := s.rm.Insert(body, near)
	if err != nil {
		return records.NilRID, err
	}
	s.stats.recordsCreated.Add(1)
	return rid, nil
}

// deleteRecord removes a record and its cached image.
func (s *Store) deleteRecord(rid records.RID) error {
	s.cache.remove(rid)
	s.stats.recordsDeleted.Add(1)
	return s.rm.Delete(rid)
}

// patchParentRID rewrites the standalone parent pointer of child in
// place (8 bytes, no record move), unless it already names parent.
func (s *Store) patchParentRID(child, parent records.RID) error {
	var (
		v    records.View
		root noderep.Span
	)
	if err := s.viewRoot(child, &v, &root); err != nil {
		return corruptRef(parent, err)
	}
	cur, off := noderep.ImageParentRID(v.Body())
	v.Done()
	if cur == parent {
		return nil
	}
	var enc [records.RIDSize]byte
	parent.Put(enc[:])
	s.stats.parentPatches.Add(1)
	s.cache.remove(child)
	return s.rm.Patch(child, off, enc[:])
}

// Tree is a handle to one stored document tree. The root record RID
// changes when the root record splits; callers persist RootRID after
// mutating operations.
type Tree struct {
	store   *Store
	rootRID records.RID
}

// CreateTree stores a new tree consisting of a single facade aggregate
// root with the given label.
func (s *Store) CreateTree(rootLabel dict.LabelID) (*Tree, error) {
	rid, err := s.storeTreeRecord(noderep.NewAggregate(rootLabel), records.NilRID, 0, nil) // no proxy to patch
	if err != nil {
		return nil, err
	}
	return &Tree{store: s, rootRID: rid}, nil
}

// OpenTree attaches to an existing tree by its root record RID.
func (s *Store) OpenTree(rootRID records.RID) *Tree {
	return &Tree{store: s, rootRID: rootRID}
}

// RootRID returns the RID of the record holding the tree's root node.
func (t *Tree) RootRID() records.RID { return t.rootRID }

// Store returns the storage manager the tree lives in.
func (t *Tree) Store() *Store { return t.store }

// DeleteTree removes the whole tree: every record reachable from the
// root record.
func (t *Tree) DeleteTree() error {
	return t.store.deleteRecordTree(t.rootRID)
}

// LoadRecordForInspection decodes a record for diagnostic tools
// (cmd/natix-inspect) and tests: a tree of the caller's own, which never
// enters the record cache.
func (s *Store) LoadRecordForInspection(rid records.RID) (*noderep.Record, error) {
	var buf []byte
	return s.decodeImage(rid, &buf)
}

// deleteRecordTree removes rid and every record reachable through its
// proxies, each after the records below it. The records are listed first,
// as WalkRecords visits them, each read where it lies and its proxies
// found by walking its bytes, so a damaged graph — a record that cannot
// be read, or one reached twice — fails the delete before anything is
// removed.
func (s *Store) deleteRecordTree(rid records.RID) error {
	var rids []records.RID
	if err := s.walkRecordsWith(rid, func(rid records.RID, todo []records.RID) ([]records.RID, error) {
		var (
			v    records.View
			root noderep.Span
		)
		if err := s.rm.View(rid, &v); err != nil {
			return todo, corruptRef(rid, err)
		}
		defer v.Done()
		ok := noderep.RootSpan(v.Body(), &root)
		if ok {
			todo, ok = noderep.AppendProxies(v.Body(), &root, todo)
		}
		if !ok {
			return todo, corrupt(rid)
		}
		rids = append(rids, rid)
		return todo, nil
	}); err != nil {
		return err
	}
	for i := len(rids) - 1; i >= 0; i-- {
		if err := s.deleteRecord(rids[i]); err != nil {
			return err
		}
	}
	return nil
}

// The image cache is the readers': the stored image of a record, copied
// out of its page once per miss, which queries read in place. The write
// path reads records where they lie and keeps nothing: every write drops
// the record's image. A hit charges the buffer manager one Pool.Touch per
// page (charge).

// recCache is the image cache: a small second-chance (CLOCK) cache of
// record images, sharded by RID so concurrent readers of different
// records rarely contend. A hit takes its shard's lock shared and sets
// the entry's reference bit; a put that finds its shard full sweeps the
// shard's hand past referenced entries, clearing their bits, and
// replaces the first unreferenced one — an approximation of LRU that
// lets readers of one shard hit in parallel.
//
// An image is a string copied out of the record's page once per miss
// (loadImage) and opened there with its node table (noderep.OpenImage),
// so a hit saves both the copy and the table build. It is immutable, so
// the read path works on it in place and hands out substrings of it — in
// ReadRefs, and as the text of a match — that keep it alive after the
// entry lets go of it. Every write of a record drops its entry, so the
// next read copies and indexes the new image; no table is ever patched
// and no query ever decodes. A nil *recCache caches nothing.
type recCache struct {
	shards [cacheShards]cacheShard
}

// cacheShards is the shard count; a power of two so the RID hash
// reduces with a mask.
const cacheShards = 16

type cacheShard struct {
	mu       sync.RWMutex
	capacity int
	entries  map[records.RID]*cacheItem
	ring     []*cacheItem // clock order; hand is the next to look at
	hand     int
}

type cacheItem struct {
	rid  records.RID
	img  *noderep.Image
	body records.RID // where the body lies (records.Manager.ReadString)
	ref  atomic.Bool // set by hits, cleared by the sweep
	idx  int         // position in ring
}

func newRecCache(capacity int) *recCache {
	per := capacity / cacheShards
	if per < 1 {
		per = 1
	}
	c := &recCache{}
	for i := range c.shards {
		c.shards[i].capacity = per
		c.shards[i].entries = make(map[records.RID]*cacheItem, per)
	}
	return c
}

func (c *recCache) shardOf(rid records.RID) *cacheShard {
	h := uint64(rid.Page)*31 + uint64(rid.Slot)
	return &c.shards[h%cacheShards]
}

// image returns the cached image of rid and where its body lies, marked
// referenced.
func (c *recCache) image(rid records.RID) (*noderep.Image, records.RID, bool) {
	if c == nil {
		return nil, records.NilRID, false
	}
	sh := c.shardOf(rid)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	it, ok := sh.entries[rid]
	if !ok {
		return nil, records.NilRID, false
	}
	if !it.ref.Load() {
		it.ref.Store(true)
	}
	return it.img, it.body, true
}

// putImage caches the image of rid, its body lying at body, replacing
// the entry the shard's clock hand picks when the shard is full.
func (c *recCache) putImage(rid records.RID, img *noderep.Image, body records.RID) {
	if c == nil {
		return
	}
	sh := c.shardOf(rid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if it, ok := sh.entries[rid]; ok {
		it.img, it.body = img, body
		it.ref.Store(true)
		return
	}
	it := &cacheItem{rid: rid, img: img, body: body}
	if len(sh.ring) < sh.capacity {
		it.idx = len(sh.ring)
		sh.ring = append(sh.ring, it)
	} else {
		for sh.ring[sh.hand].ref.Swap(false) {
			sh.hand = (sh.hand + 1) % len(sh.ring)
		}
		delete(sh.entries, sh.ring[sh.hand].rid)
		it.idx = sh.hand
		sh.ring[sh.hand] = it
		sh.hand = (sh.hand + 1) % len(sh.ring)
	}
	sh.entries[rid] = it
}

// footprint returns the bytes the cached images and their node tables
// take, summed shard by shard under each shard's lock.
func (c *recCache) footprint() int64 {
	if c == nil {
		return 0
	}
	var n int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for _, it := range sh.ring {
			n += int64(it.img.Footprint())
		}
		sh.mu.RUnlock()
	}
	return n
}

func (c *recCache) remove(rid records.RID) {
	if c == nil {
		return
	}
	sh := c.shardOf(rid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	it, ok := sh.entries[rid]
	if !ok {
		return
	}
	delete(sh.entries, rid)
	n := len(sh.ring) - 1
	sh.ring[it.idx] = sh.ring[n]
	sh.ring[it.idx].idx = it.idx
	sh.ring[n] = nil
	sh.ring = sh.ring[:n]
	if sh.hand >= n {
		sh.hand = 0
	}
}

func (c *recCache) clear() {
	if c == nil {
		return
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		clear(sh.entries)
		clear(sh.ring)
		sh.ring, sh.hand = sh.ring[:0], 0
		sh.mu.Unlock()
	}
}
