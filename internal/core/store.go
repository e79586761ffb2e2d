package core

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

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

	// CacheRecords bounds the record caches (number of records each): the
	// images queries read in place, and the trees the write path decoded.
	// The caches save copying and decoding CPU but never hide I/O: hits
	// still touch the buffer manager. 0 disables both.
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
// ReadChildren, AppendReadText, FacadeWalker, Cursor, WalkRecords) are
// safe for any number of concurrent callers: the image cache is sharded
// and the counters are atomics. Mutating operations (InsertChild,
// Delete, splits) and the decoded reference (Root, Children, Locate)
// are the writer's: they share the writer's tree cache, a map with no
// lock, so the caller serializes all of them, whatever document each is
// on, and keeps mutators apart from readers of the same document —
// package docstore's writer mutex and per-document locks provide both.
// Readers run beside a mutator of another document. In test binaries a
// second goroutine inside the tree cache at the same time panics.
type Store struct {
	rm    *records.Manager
	cfg   Config
	cache *recCache // the readers' images; nil when caching is off
	trees treeCache // the writer's decoded trees
	stats storeStats

	// Scratch of the (serialized) mutating operations: the buffer record
	// images are decoded from, the layout of the record last measured,
	// the image buffer it is emitted into, the node edit spliced into a
	// stored image (its splice state and physical path), and the child
	// list of the insert or delete point.
	decodeBuf []byte
	layout    noderep.Layout
	image     []byte
	edit      nodeEdit
	entries   []childEntry

	// spliceHook, when set, writes node edits in place of spliceRecord's
	// own path; the differential tests set it to the path it replaced.
	spliceHook func(s *Store, pos physPos, node *noderep.Node) (bool, error)
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
		s.trees.init(cfg.CacheRecords)
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
	s.stats.cacheHits.Store(0)
	s.stats.cacheMisses.Store(0)
}

// InvalidateCache drops every cached record, image and tree (e.g. after
// a buffer clear or a rollback restored pages under it). Mutator
// context: the tree cache is the writer's.
func (s *Store) InvalidateCache() {
	if s.cache != nil {
		s.cache.clear()
	}
	s.trees.clear()
}

// maxRecordSize is the net page capacity (§3.2.2).
func (s *Store) maxRecordSize() int { return s.rm.MaxRecordSize() }

// loadRecord returns the decoded tree of a record: the write path's
// form, which its operations (insert, delete, split, patchParentRID, and
// Locate, childAt and collectEntries on their way) edit in place before
// writing the record back; Root and Children read it as the decoded
// reference. Only the writer calls it (see Store). A tree in the tree
// cache is returned as it is; otherwise the record's image — the one in
// the image cache, which the tree then replaces there, or the one stored
// in its page — is copied into the writer's decode buffer
// (noderep.Decode takes bytes and keeps none of them) and decoded into a
// tree the tree cache keeps: the write path mostly goes on to change the
// record, which drops the image anyway, and keeping both would hold the
// record in memory twice. A hit in either cache still charges the
// record's pages to the buffer manager (charge), so I/O accounting (and
// eviction-driven physical reads) remain faithful.
func (s *Store) loadRecord(rid records.RID) (*noderep.Record, error) {
	if e, ok := s.trees.get(rid); ok {
		s.stats.cacheHits.Add(1)
		body, err := s.charge(rid, e.body)
		if err != nil {
			return nil, err
		}
		if body != e.body {
			s.trees.put(rid, e.rec, body)
		}
		return e.rec, nil
	}
	var (
		body records.RID
		err  error
	)
	if im, at, ok := s.cache.take(rid); ok {
		s.stats.cacheHits.Add(1)
		if body, err = s.charge(rid, at); err != nil {
			return nil, err
		}
		s.decodeBuf = append(s.decodeBuf[:0], im.Data()...)
	} else {
		if s.cache != nil {
			s.stats.cacheMisses.Add(1)
		}
		if s.decodeBuf, err = s.rm.ReadInto(rid, s.decodeBuf); err != nil {
			return nil, err
		}
	}
	s.stats.recordsDecoded.Add(1)
	rec, err := noderep.Decode(s.decodeBuf)
	if err != nil {
		return nil, fmt.Errorf("record %s: %w", rid, err)
	}
	s.trees.put(rid, rec, body)
	return rec, nil
}

// charge bills a cache hit of record rid to the buffer manager page by
// page, as reading it would be billed: its home page and, for a
// forwarded record, the page its body lies on. body is where the body
// lies as the cache entry remembers it, NilRID when the entry does not
// know; then the home page is looked into (records.Manager.Touch) and
// the answer returned for the entry to keep.
func (s *Store) charge(rid, body records.RID) (records.RID, error) {
	if body.IsNil() {
		return s.rm.Touch(rid)
	}
	return body, s.rm.TouchAt(rid, body)
}

// pageOf returns the page the body of record rid lies on: the tree
// cache knows it for every record the operation has loaded, and only
// the others cost a look into the home page (records.Manager.PageOf).
func (s *Store) pageOf(rid records.RID) (pagedev.PageNo, error) {
	if body := s.trees.body(rid); !body.IsNil() {
		return body.Page, nil
	}
	return s.rm.PageOf(rid)
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
	// The body may move: where it lies is looked up again at the next hit.
	s.wrote(rid, rec, records.NilRID)
	return s.rm.Update(rid, body)
}

// wrote notes that record rid was just written from the tree rec, its
// body now lying at body (NilRID: not known): the tree cache keeps rec
// and the image cache drops the image it held, which the write changed.
func (s *Store) wrote(rid records.RID, rec *noderep.Record, body records.RID) {
	s.cache.remove(rid)
	s.trees.put(rid, rec, body)
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
	s.wrote(rid, rec, rid)
	return rid, nil
}

// deleteRecord removes a record and its cache entries.
func (s *Store) deleteRecord(rid records.RID) error {
	s.forget(rid)
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
	s.wrote(child, rec, s.trees.body(child))
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

// forget drops record rid from both caches.
func (s *Store) forget(rid records.RID) {
	s.cache.remove(rid)
	s.trees.remove(rid)
}

// The store keeps two record caches, one per role. The image cache is
// the readers': the stored image of a record, copied out of its page
// once per miss, which queries read in place — sharded and locked, since
// any number of readers share it. The tree cache is the writer's: the
// decoded tree each mutating operation edits in place, a plain map only
// the writer touches. A record's entries are kept apart from each other:
// a write replaces the tree and drops the image (wrote, forget), a tree
// decoded from a cached image takes it out of the image cache (take),
// and an image read in beside a cached tree lasts until the next write
// of the record. Both remember where the record's body lies, so a hit
// charges the buffer manager one Pool.Touch per page (charge).

// treeCache holds the write path's decoded trees. It takes no lock and
// keeps no recency order: only the writer reads or changes it, and when
// it is full it is emptied. A decoded tree takes about 6.5 times its
// image's bytes, all of it pointers every garbage collection marks, and
// the writer's working set is the records of the document it edits now,
// which come back at one miss each: a full cache of trees of documents
// edited earlier costs every goroutine longer collections and saves
// little. The zero value caches nothing.
type treeCache struct {
	capacity int
	entries  map[uint64]treeEntry // keyed by ridKey

	// users counts the goroutines inside the cache's methods, in test
	// binaries only (checkTreeCache).
	users atomic.Int32
}

// checkTreeCache makes the tree cache's methods check that no other
// goroutine is inside one at the same time: a caller that runs the
// decoded reference beside a mutator then fails with a panic that names
// the cause, instead of a fatal concurrent map access or, without -race,
// nothing at all. It is on in test binaries.
var checkTreeCache = testing.Testing()

// enter and leave bracket each method of the cache.
func (c *treeCache) enter() {
	if checkTreeCache && c.users.Add(1) != 1 {
		panic("core: the tree cache used by two goroutines at once: mutating operations and the decoded reference (Tree.Root, Store.Children, Tree.Locate) are the writer's and must be serialized")
	}
}

func (c *treeCache) leave() {
	if checkTreeCache {
		c.users.Add(-1)
	}
}

type treeEntry struct {
	rec  *noderep.Record
	body records.RID // where the body lies (records.Manager.Touch); NilRID until known
}

// ridKey packs a RID (48-bit page, 16-bit slot) into a map key that
// hashes as one word.
func ridKey(rid records.RID) uint64 { return uint64(rid.Page)<<16 | uint64(rid.Slot) }

func (c *treeCache) init(capacity int) {
	c.capacity, c.entries = capacity, make(map[uint64]treeEntry, min(capacity, 1024))
}

func (c *treeCache) get(rid records.RID) (treeEntry, bool) {
	c.enter()
	defer c.leave()
	e, ok := c.entries[ridKey(rid)]
	return e, ok
}

// body returns where the body of rid lies as the cache knows it, NilRID
// when it does not.
func (c *treeCache) body(rid records.RID) records.RID {
	c.enter()
	defer c.leave()
	return c.entries[ridKey(rid)].body
}

// put caches the tree of rid, its body lying at body.
func (c *treeCache) put(rid records.RID, rec *noderep.Record, body records.RID) {
	c.enter()
	defer c.leave()
	if c.capacity == 0 {
		return
	}
	k := ridKey(rid)
	if _, ok := c.entries[k]; !ok && len(c.entries) >= c.capacity {
		clear(c.entries)
	}
	c.entries[k] = treeEntry{rec: rec, body: body}
}

func (c *treeCache) remove(rid records.RID) {
	c.enter()
	defer c.leave()
	delete(c.entries, ridKey(rid))
}

func (c *treeCache) clear() {
	c.enter()
	defer c.leave()
	clear(c.entries)
}

// recCache is the image cache: a small LRU of record images, sharded by
// RID so concurrent readers of different records rarely contend. Each
// shard keeps its own LRU order under its own mutex — an approximation of
// global LRU that stays exact within a shard.
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
	mu       sync.Mutex
	capacity int
	entries  map[records.RID]*list.Element
	order    *list.List // front = most recently used
}

type cacheItem struct {
	rid  records.RID
	img  *noderep.Image
	body records.RID // where the body lies (records.Manager.ReadString)
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

// image returns the cached image of rid and where its body lies, marked
// most recently used.
func (c *recCache) image(rid records.RID) (*noderep.Image, records.RID, bool) {
	if c == nil {
		return nil, records.NilRID, false
	}
	sh := c.shardOf(rid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[rid]
	if !ok {
		return nil, records.NilRID, false
	}
	sh.order.MoveToFront(e)
	it := e.Value.(*cacheItem)
	return it.img, it.body, true
}

// take is image for a caller that replaces the image with a tree of its
// own: the entry goes.
func (c *recCache) take(rid records.RID) (*noderep.Image, records.RID, bool) {
	if c == nil {
		return nil, records.NilRID, false
	}
	sh := c.shardOf(rid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[rid]
	if !ok {
		return nil, records.NilRID, false
	}
	sh.order.Remove(e)
	delete(sh.entries, rid)
	it := e.Value.(*cacheItem)
	return it.img, it.body, true
}

// putImage caches the image of rid, its body lying at body, evicting the
// shard's least recently used entries as needed.
func (c *recCache) putImage(rid records.RID, img *noderep.Image, body records.RID) {
	if c == nil {
		return
	}
	sh := c.shardOf(rid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[rid]; ok {
		sh.order.MoveToFront(e)
		it := e.Value.(*cacheItem)
		it.img, it.body = img, body
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
	sh.entries[rid] = sh.order.PushFront(&cacheItem{rid: rid, img: img, body: body})
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
		sh.mu.Lock()
		for e := sh.order.Front(); e != nil; e = e.Next() {
			n += int64(e.Value.(*cacheItem).img.Footprint())
		}
		sh.mu.Unlock()
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
	if e, ok := sh.entries[rid]; ok {
		sh.order.Remove(e)
		delete(sh.entries, rid)
	}
}

func (c *recCache) clear() {
	if c == nil {
		return
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.entries = make(map[records.RID]*list.Element, sh.capacity)
		sh.order.Init()
		sh.mu.Unlock()
	}
}
