package core

import (
	"container/list"
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

	// CacheRecords bounds the record cache (number of records): their
	// images, which queries read in place, and the trees the write path
	// decoded from them. The cache saves copying and decoding CPU but never
	// hides I/O: hits still touch the buffer manager. 0 disables the cache.
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
	RecordsDecoded   int64 // record images decoded into trees (the write path's, and WalkRecords' own)
	CacheHits        int64
	CacheMisses      int64
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
// ReadChildren, AppendReadText, FacadeWalker, Cursor, WalkRecords, and
// the decoded reference Root and Children) are safe for any number of
// concurrent callers: the record cache is sharded and the counters are
// atomics. Mutating operations
// (InsertChild, Delete, splits) must be serialized by the caller and
// must not run concurrently with readers of the same document — package
// docstore's per-document locks provide both.
type Store struct {
	rm    *records.Manager
	cfg   Config
	cache *recCache
	stats storeStats

	// decodeBufs holds the buffers loadRecord decodes record images from;
	// loadRecord runs concurrently when the decoded reference (Root,
	// Children) is read beside other readers.
	decodeBufs sync.Pool

	// Scratch of the (serialized) mutating operations: the layout of the
	// record last measured, the image buffer it is emitted (or read and
	// spliced) into, the splice state and physical path of a node edit,
	// and the child list of the insert or delete point.
	layout  noderep.Layout
	image   []byte
	splice  noderep.Splice
	path    []int
	entries []childEntry
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
	cacheHits        atomic.Int64
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
	reg.Func("core.cache_hits", s.stats.cacheHits.Load)
	reg.Func("core.cache_misses", s.stats.cacheMisses.Load)
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
	s.stats.cacheHits.Store(0)
	s.stats.cacheMisses.Store(0)
}

// InvalidateCache drops every cached record (e.g. after a buffer clear
// or a rollback restored pages under it).
func (s *Store) InvalidateCache() {
	if s.cache != nil {
		s.cache.clear()
	}
}

// maxRecordSize is the net page capacity (§3.2.2).
func (s *Store) maxRecordSize() int { return s.rm.MaxRecordSize() }

// loadRecord returns the decoded tree of a record: the write path's
// form, which its operations (insert, delete, split, patchParentRID, and
// Locate, childAt and collectEntries on their way) edit in place before
// writing the record back; Root and Children read it as the decoded
// reference. No other reader calls it. A cached tree is returned as it is; otherwise the record's image
// — the cached one, or the one stored in its page — is copied into a
// pooled buffer (noderep.Decode takes bytes and keeps none of them) and
// decoded, and the tree takes the image's place in the cache: the write
// path mostly goes on to change the record, which drops the image
// anyway, and an entry holding both would keep the record in memory
// twice. Cache hits still touch the record's page through the buffer
// manager so I/O accounting (and eviction-driven physical reads) remain
// faithful.
func (s *Store) loadRecord(rid records.RID) (*noderep.Record, error) {
	var im *noderep.Image
	if s.cache != nil {
		if rec, cached, ok := s.cache.record(rid); ok {
			s.stats.cacheHits.Add(1)
			if err := s.rm.Touch(rid); err != nil {
				return nil, err
			}
			if rec != nil {
				return rec, nil
			}
			im = cached
		} else {
			s.stats.cacheMisses.Add(1)
		}
	}
	buf, _ := s.decodeBufs.Get().(*[]byte)
	if buf == nil {
		buf = new([]byte)
	}
	defer s.decodeBufs.Put(buf)
	if im != nil {
		*buf = append((*buf)[:0], im.Data()...)
	} else {
		var err error
		if *buf, err = s.rm.ReadInto(rid, *buf); err != nil {
			return nil, err
		}
	}
	s.stats.recordsDecoded.Add(1)
	rec, err := noderep.Decode(*buf)
	if err != nil {
		return nil, fmt.Errorf("record %s: %w", rid, err)
	}
	if s.cache != nil {
		s.cache.putRecord(rid, rec)
	}
	return rec, nil
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
	s.stats.recordsRewritten.Add(1)
	if err := s.rm.Update(rid, body); err != nil {
		return err
	}
	s.wrote(rid, rec)
	return nil
}

// wrote notes that record rid was just written from the tree rec: the
// cache keeps rec and drops the image it held, which the write changed.
func (s *Store) wrote(rid records.RID, rec *noderep.Record) {
	if s.cache != nil {
		s.cache.putRecord(rid, rec)
	}
}

// insertRecord stores rec as a new record near the hint page.
func (s *Store) insertRecord(rec *noderep.Record, near pagedev.PageNo) (records.RID, error) {
	if _, err := s.measure(rec); err != nil {
		return records.NilRID, err
	}
	return s.insertMeasured(rec, near)
}

// insertMeasured is insertRecord for a record the caller has just
// measured.
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
	s.wrote(rid, rec)
	return rid, nil
}

// deleteRecord removes a record and its cache entry.
func (s *Store) deleteRecord(rid records.RID) error {
	if s.cache != nil {
		s.cache.remove(rid)
	}
	s.stats.recordsDeleted.Add(1)
	return s.rm.Delete(rid)
}

// patchParentRID rewrites the standalone parent pointer of child in
// place (8 bytes, no record move).
func (s *Store) patchParentRID(child, parent records.RID) error {
	rec, err := s.loadRecord(child)
	if err != nil {
		return err
	}
	if rec.ParentRID == parent {
		return nil
	}
	rec.ParentRID = parent
	var enc [records.RIDSize]byte
	parent.Put(enc[:])
	off := noderep.RecordParentRIDOffset(rec)
	s.stats.parentPatches.Add(1)
	if err := s.rm.Patch(child, off, enc[:]); err != nil {
		return err
	}
	s.wrote(child, rec)
	return nil
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
	rec := &noderep.Record{ParentRID: records.NilRID, Root: noderep.NewAggregate(rootLabel)}
	rid, err := s.insertRecord(rec, 0)
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
// proxies, each after the records below it. The records are listed
// first (walkRecords), so a damaged graph — a record that cannot be
// read, or one reached twice — fails the delete before anything is
// removed.
func (s *Store) deleteRecordTree(rid records.RID) error {
	var rids []records.RID
	if err := s.walkRecords(rid, func(rid records.RID, _ *noderep.Record) error {
		rids = append(rids, rid)
		return nil
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

// recCache is a small LRU of records, sharded by RID so concurrent
// readers of different records rarely contend. Each shard keeps its own
// LRU order under its own mutex — an approximation of global LRU that
// stays exact within a shard.
//
// An entry holds up to two forms of its record. The image is a string
// copied out of the record's page once per miss (loadImage): immutable,
// so the read path works on it in place and hands out substrings of it —
// in ReadRefs, and as the text of a match — that keep it alive after the
// entry lets go of it. The tree is decoded from the image the first time
// the write path asks for the record, takes the image's place, and is
// edited in place by the write path; a read copies the image in again
// beside it. Every write of a record replaces the entry's tree and drops
// its image (wrote, remove, clear), so the next read copies the new image
// in; no query ever decodes.
type recCache struct {
	shards [cacheShards]cacheShard
}

// cacheShards is the shard count; a power of two so the RID hash
// reduces with a mask.
const cacheShards = 16

type cacheShard struct {
	mu       sync.Mutex
	capacity int
	entries  map[records.RID]*list.Element
	order    *list.List // front = most recently used
}

type cacheItem struct {
	rid records.RID
	img *noderep.Image  // the stored image; nil once a write changed it or the tree replaced it
	rec *noderep.Record // the decoded tree; nil until the write path asks for it
}

func newRecCache(capacity int) *recCache {
	per := capacity / cacheShards
	if per < 1 {
		per = 1
	}
	c := &recCache{}
	for i := range c.shards {
		c.shards[i].capacity = per
		c.shards[i].entries = make(map[records.RID]*list.Element, per)
		c.shards[i].order = list.New()
	}
	return c
}

func (c *recCache) shardOf(rid records.RID) *cacheShard {
	h := uint64(rid.Page)*31 + uint64(rid.Slot)
	return &c.shards[h%cacheShards]
}

// lookup returns rid's entry, marked most recently used. Caller holds
// sh.mu.
func (sh *cacheShard) lookup(rid records.RID) (*cacheItem, bool) {
	e, ok := sh.entries[rid]
	if !ok {
		return nil, false
	}
	sh.order.MoveToFront(e)
	return e.Value.(*cacheItem), true
}

// image returns the cached image of rid, if the entry holds one.
func (c *recCache) image(rid records.RID) (*noderep.Image, bool) {
	sh := c.shardOf(rid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	it, ok := sh.lookup(rid)
	if !ok || it.img == nil {
		return nil, false
	}
	return it.img, true
}

// record returns what the entry of rid holds, ok when that is anything.
func (c *recCache) record(rid records.RID) (rec *noderep.Record, img *noderep.Image, ok bool) {
	sh := c.shardOf(rid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	it, ok := sh.lookup(rid)
	if !ok || (it.rec == nil && it.img == nil) {
		return nil, nil, false
	}
	return it.rec, it.img, true
}

// putImage caches the image of rid beside whatever tree the entry holds.
func (c *recCache) putImage(rid records.RID, img *noderep.Image) {
	c.update(rid, func(it *cacheItem) { it.img = img })
}

// putRecord caches the tree of rid in place of its image.
func (c *recCache) putRecord(rid records.RID, rec *noderep.Record) {
	c.update(rid, func(it *cacheItem) { it.rec, it.img = rec, nil })
}

// update applies set to the entry of rid, made (evicting as needed) when
// there is none.
func (c *recCache) update(rid records.RID, set func(*cacheItem)) {
	sh := c.shardOf(rid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if it, ok := sh.lookup(rid); ok {
		set(it)
		return
	}
	for len(sh.entries) >= sh.capacity {
		back := sh.order.Back()
		if back == nil {
			break
		}
		sh.order.Remove(back)
		delete(sh.entries, back.Value.(*cacheItem).rid)
	}
	it := &cacheItem{rid: rid}
	set(it)
	sh.entries[rid] = sh.order.PushFront(it)
}

func (c *recCache) remove(rid records.RID) {
	sh := c.shardOf(rid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[rid]; ok {
		sh.order.Remove(e)
		delete(sh.entries, rid)
	}
}

func (c *recCache) clear() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.entries = make(map[records.RID]*list.Element, sh.capacity)
		sh.order.Init()
		sh.mu.Unlock()
	}
}
