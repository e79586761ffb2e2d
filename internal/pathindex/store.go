package pathindex

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"natix/internal/blobstore"
	"natix/internal/dict"
	"natix/internal/pagedev"
	"natix/internal/records"
	"natix/internal/segment"
)

// Store persists one summary blob per document plus one postings blob
// per element label, with a catalog blob mapping document names to
// summary RIDs; the catalog RID lives in the segment header's
// RootPathIndex slot. All storage goes through the blob manager — and
// therefore the record manager and buffer pool — so index I/O is
// accounted like data I/O.
//
// Reads are lazy: opening a document's index loads only the summary;
// each label's postings are read on first probe. A query therefore
// pays for the posting lists of the labels its steps name, not for the
// whole index.
//
// Decoded handles are cached per document (bounded; arbitrary eviction
// beyond maxCached). The cache only saves blob reads and decoding; it
// is coherent because the Store is the only writer and every Put/Drop
// updates it. Measurement harnesses that clear the buffer pool between
// operations should call InvalidateCache too, so index I/O is charged
// to the operation like every other page access.
//
// Reads (Get, Has, Names, lazy posting loads) are safe for any number
// of concurrent callers; Put and Drop must be serialized by the caller
// (package docstore's writer lock) but may run concurrently with
// readers of other documents.
type Store struct {
	blobs *blobstore.Store
	seg   *segment.Segment

	// view is read by every query (Get) and every node edit (Has, through
	// Drop), so it is immutable behind an atomic pointer and readers take
	// no lock. mu serializes its writers — Put, Drop, Reload,
	// InvalidateCache and a Get caching a handle it decoded — each of
	// which publishes a changed copy.
	mu        sync.Mutex
	view      atomic.Pointer[catalogView]
	catalogID records.RID // touched only by the (serialized) writer
}

// catalogView is one immutable state of a Store's catalog and cache.
type catalogView struct {
	entries map[string]records.RID // document name -> summary blob RID
	cache   map[string]*Handle
}

// editView publishes a copy of the view that edit changed. Caller holds
// s.mu.
func (s *Store) editView(edit func(*catalogView)) {
	old := s.view.Load()
	v := &catalogView{entries: maps.Clone(old.entries), cache: maps.Clone(old.cache)}
	edit(v)
	s.view.Store(v)
}

// maxCached bounds the decoded-handle cache.
const maxCached = 64

// Open attaches to the path-index store of a segment. A segment that
// has no path-index catalog yet (a fresh store, or one created before
// indexing existed) yields an empty store; the catalog is first
// persisted when an index is stored, so read-only use never writes.
func Open(rm *records.Manager) (*Store, error) {
	s := &Store{blobs: blobstore.New(rm), seg: rm.Segment()}
	if err := s.load(); err != nil {
		return nil, fmt.Errorf("pathindex: load catalog: %w", err)
	}
	return s, nil
}

// Reload discards the in-memory catalog and handle cache and re-reads
// the catalog from the segment. The document store calls it after a
// log-driven rollback restored pages under the in-memory state.
// Mutator context (the rollback holds the store-wide writer lock).
func (s *Store) Reload() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.load(); err != nil {
		return fmt.Errorf("pathindex: reload catalog: %w", err)
	}
	return nil
}

// load reads the catalog the segment header names and publishes it with
// an empty handle cache. A segment without one has an empty catalog.
func (s *Store) load() error {
	v := &catalogView{entries: make(map[string]records.RID), cache: make(map[string]*Handle)}
	defer s.view.Store(v)
	s.catalogID = records.RID{}
	raw, err := s.seg.RootRID(segment.RootPathIndex)
	if err != nil || raw == 0 {
		return err
	}
	var enc [records.RIDSize]byte
	binary.LittleEndian.PutUint64(enc[:], raw)
	s.catalogID = records.DecodeRID(enc[:])
	body, err := s.blobs.Read(s.catalogID)
	if err != nil {
		return err
	}
	return decodeCatalog(body, v.entries)
}

// encodeCatalog serializes entries in name order.
func encodeCatalog(entries map[string]records.RID) []byte {
	names := sortedNames(entries)
	out := make([]byte, 0, 8)
	out = append(out, catalogMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(names)))
	var rid [records.RIDSize]byte
	for _, n := range names {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(n)))
		out = append(out, n...)
		entries[n].Put(rid[:])
		out = append(out, rid[:]...)
	}
	return out
}

// decodeCatalog adds the entries of a catalog blob to entries.
func decodeCatalog(b []byte, entries map[string]records.RID) error {
	if len(b) < 8 || string(b[:4]) != catalogMagic {
		return fmt.Errorf("%w: bad catalog magic", ErrCorrupt)
	}
	count := int(binary.LittleEndian.Uint32(b[4:]))
	pos := 8
	for i := 0; i < count; i++ {
		if pos+2 > len(b) {
			return fmt.Errorf("%w: truncated catalog entry %d", ErrCorrupt, i)
		}
		n := int(binary.LittleEndian.Uint16(b[pos:]))
		pos += 2
		if pos+n+records.RIDSize > len(b) {
			return fmt.Errorf("%w: truncated catalog entry %d", ErrCorrupt, i)
		}
		name := string(b[pos : pos+n])
		pos += n
		entries[name] = records.DecodeRID(b[pos : pos+records.RIDSize])
		pos += records.RIDSize
	}
	return nil
}

func (s *Store) saveCatalog() error {
	body := encodeCatalog(s.view.Load().entries)
	var (
		id  records.RID
		err error
	)
	if s.catalogID.IsNil() {
		id, err = s.blobs.Write(body, 0)
	} else {
		id, err = s.blobs.Overwrite(s.catalogID, body)
	}
	if err != nil {
		return err
	}
	s.catalogID = id
	var enc [records.RIDSize]byte
	id.Put(enc[:])
	return s.seg.SetRootRID(segment.RootPathIndex, binary.LittleEndian.Uint64(enc[:]))
}

// Names lists the indexed documents in name order.
func (s *Store) Names() []string {
	return sortedNames(s.view.Load().entries)
}

func sortedNames(entries map[string]records.RID) []string {
	out := make([]string, 0, len(entries))
	for n := range entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Has reports whether name has a stored index.
func (s *Store) Has(name string) bool {
	_, ok := s.view.Load().entries[name]
	return ok
}

// Put stores (or replaces) the index for name: one postings blob per
// label, chained near each other, then the summary blob. The new index
// is written and registered before the old one's blobs are freed, so a
// mid-Put failure leaves the previous index intact and live rather
// than a catalog pointing at freed blobs. enc, when not nil, is a
// buffer of the caller's that every blob is encoded in (and that grows
// to the largest of them), so a caller storing index after index
// encodes in place; the blob manager copies what it stores. A list
// that checkPostings rejects is refused before anything is written.
func (s *Store) Put(name string, idx *Index, enc *[]byte) error {
	oldRIDs, err := s.blobRIDs(name)
	if err != nil {
		return err
	}
	if enc == nil {
		var own []byte
		enc = &own
	}
	for label, list := range idx.postings {
		if err := checkPostings(list, idx.NumPaths(), idx.nodes); err != nil {
			return fmt.Errorf("pathindex: store %q: label %d: %w", name, label, err)
		}
	}
	dir := make(map[dict.LabelID]dirEntry, len(idx.postings))
	written := make([]records.RID, 0, len(idx.postings)+1)
	// A failed write frees whatever this Put already allocated so the
	// segment does not accumulate unreferenced blobs.
	rollback := func(cause error) error {
		for _, rid := range written {
			if err := s.blobs.Delete(rid); err != nil {
				return fmt.Errorf("%w (rollback failed: %v)", cause, err)
			}
		}
		return cause
	}
	var near pagedev.PageNo
	for _, label := range idx.PostingLabels() {
		list := idx.Postings(label)
		*enc = encodePostings((*enc)[:0], list)
		id, err := s.blobs.Write(*enc, near)
		if err != nil {
			return rollback(fmt.Errorf("pathindex: store %q postings: %w", name, err))
		}
		written = append(written, id)
		dir[label] = dirEntry{count: uint32(len(list)), rid: id}
		near = id.Page
	}
	sum := &summary{version: indexVersion, paths: idx.paths, root: idx.root, nodes: idx.nodes, dir: dir}
	*enc = encodeSummary((*enc)[:0], sum)
	id, err := s.blobs.Write(*enc, near)
	if err != nil {
		return rollback(fmt.Errorf("pathindex: store %q summary: %w", name, err))
	}
	s.mu.Lock()
	s.editView(func(v *catalogView) {
		v.entries[name] = id
		v.cacheAdd(name, &Handle{store: s, sum: sum, postings: idx.postings})
	})
	s.mu.Unlock()
	if err := s.saveCatalog(); err != nil {
		return err
	}
	for _, rid := range oldRIDs {
		if err := s.blobs.Delete(rid); err != nil {
			return err
		}
	}
	return nil
}

// Get returns a handle on the index of name, loading and caching its
// summary on first use. It returns (nil, nil) when the document has no
// index. Concurrent first loads of the same document may both read the
// summary; one decoded handle wins the cache and both callers get a
// valid view. A handle is cached only while name still names the
// summary it was decoded from.
func (s *Store) Get(name string) (*Handle, error) {
	v := s.view.Load()
	if h, ok := v.cache[name]; ok {
		return h, nil
	}
	id, ok := v.entries[name]
	if !ok {
		return nil, nil
	}
	body, err := s.blobs.Read(id)
	if err != nil {
		return nil, fmt.Errorf("pathindex: load %q: %w", name, err)
	}
	sum, err := decodeSummary(body)
	if err != nil {
		return nil, fmt.Errorf("pathindex: %q: %w", name, err)
	}
	h := &Handle{store: s, sum: sum, postings: make(map[dict.LabelID][]Posting)}
	s.mu.Lock()
	defer s.mu.Unlock()
	v = s.view.Load()
	if cached, ok := v.cache[name]; ok {
		return cached, nil
	}
	if v.entries[name] == id {
		s.editView(func(v *catalogView) { v.cacheAdd(name, h) })
	}
	return h, nil
}

// Drop removes the index for name, if any. The catalog entry goes
// first: a failure after that can only leak blobs, never leave the
// catalog pointing at freed ones.
func (s *Store) Drop(name string) error {
	if !s.Has(name) {
		return nil
	}
	rids, err := s.blobRIDs(name)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.editView(func(v *catalogView) {
		delete(v.entries, name)
		delete(v.cache, name)
	})
	s.mu.Unlock()
	if err := s.saveCatalog(); err != nil {
		return err
	}
	for _, rid := range rids {
		if err := s.blobs.Delete(rid); err != nil {
			return err
		}
	}
	return nil
}

// blobRIDs lists every blob of name's stored index (posting lists and
// summary); nil when name has no index. An undecodable summary must
// not wedge the document forever (Drop backs Delete, Convert and the
// reindex repair path), so its posting blobs — unenumerable without
// the directory — are leaked and only the summary itself is freed.
func (s *Store) blobRIDs(name string) ([]records.RID, error) {
	id, ok := s.view.Load().entries[name]
	if !ok {
		return nil, nil
	}
	h, err := s.Get(name)
	if errors.Is(err, ErrCorrupt) {
		return []records.RID{id}, nil
	}
	if err != nil {
		return nil, err
	}
	rids := make([]records.RID, 0, len(h.sum.dir)+1)
	for _, e := range h.sum.dir {
		rids = append(rids, e.rid)
	}
	return append(rids, id), nil
}

// BlobRIDs lists every blob of name's stored index (posting lists and
// summary); nil when name has no index. The integrity scrubber uses it
// to attribute index pages to their document and to verify postings
// still point at live blobs.
func (s *Store) BlobRIDs(name string) ([]records.RID, error) {
	return s.blobRIDs(name)
}

// BlobSize returns the total serialized size of name's index in bytes
// (summary plus all posting blobs).
func (s *Store) BlobSize(name string) (int64, error) {
	id, ok := s.view.Load().entries[name]
	if !ok {
		return 0, fmt.Errorf("pathindex: no index for %q", name)
	}
	total, err := s.blobs.Size(id)
	if err != nil {
		return 0, err
	}
	h, err := s.Get(name)
	if err != nil {
		return 0, err
	}
	for _, e := range h.sum.dir {
		n, err := s.blobs.Size(e.rid)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// cacheAdd caches a decoded handle in a view being edited, evicting an
// arbitrary entry at the bound.
func (v *catalogView) cacheAdd(name string, h *Handle) {
	if _, ok := v.cache[name]; !ok && len(v.cache) >= maxCached {
		for evict := range v.cache {
			delete(v.cache, evict)
			break
		}
	}
	v.cache[name] = h
}

// InvalidateCache drops all decoded handles, forcing the next access
// to re-read summary and postings through the buffer pool.
func (s *Store) InvalidateCache() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.editView(func(v *catalogView) { clear(v.cache) })
}

// Handle is a lazily loaded view of one document's index: the summary
// is resident, posting lists are read (and then kept) on first probe.
// Handles are shared between concurrent queries of the same document;
// the lazy loads are guarded by a per-handle lock. The summary itself
// is immutable once decoded.
type Handle struct {
	store *Store
	sum   *summary

	mu       sync.RWMutex // guards postings
	postings map[dict.LabelID][]Posting
}

// Path returns the summary node for id.
func (h *Handle) Path(id PathID) PathNode { return h.sum.paths[id] }

// NumPaths returns the number of distinct label paths.
func (h *Handle) NumPaths() int { return len(h.sum.paths) - 1 }

// NumNodes returns the total number of logical nodes in the document.
func (h *Handle) NumNodes() int { return int(h.sum.nodes) }

// RootLabel returns the label of the document root element.
func (h *Handle) RootLabel() dict.LabelID { return h.sum.root }

// FormatVersion returns the version the stored index was written in.
func (h *Handle) FormatVersion() int { return int(h.sum.version) }

// PostingLabels returns the labels with a posting list, sorted. It
// reads only the resident directory.
func (h *Handle) PostingLabels() []dict.LabelID { return h.sum.labels() }

// PostingCount returns the number of postings of label without loading
// them.
func (h *Handle) PostingCount(label dict.LabelID) int {
	return int(h.sum.dir[label].count)
}

// PostingSize returns the serialized size in bytes of label's posting
// blob without loading it (0 when the label does not occur). Together
// with PostingCount this prices a query's posting reads before running
// it.
func (h *Handle) PostingSize(label dict.LabelID) (int64, error) {
	e, ok := h.sum.dir[label]
	if !ok {
		return 0, nil
	}
	return h.store.blobs.Size(e.rid)
}

// Postings returns the document-order posting list for label (nil when
// the label does not occur), loading it on first use. The slice is
// shared; callers must not modify it. Concurrent first probes of the
// same label may both read the blob; the first decoded list wins and
// is returned to everyone.
func (h *Handle) Postings(label dict.LabelID) ([]Posting, error) {
	h.mu.RLock()
	list, ok := h.postings[label]
	h.mu.RUnlock()
	if ok {
		return list, nil
	}
	e, ok := h.sum.dir[label]
	if !ok {
		return nil, nil
	}
	body, err := h.store.blobs.Read(e.rid)
	if err != nil {
		return nil, fmt.Errorf("pathindex: load postings of label %d: %w", label, err)
	}
	list, err = decodePostings(h.sum.version, body, h.NumPaths(), h.sum.nodes)
	if err != nil {
		return nil, fmt.Errorf("pathindex: postings of label %d: %w", label, err)
	}
	if len(list) != int(e.count) {
		return nil, fmt.Errorf("%w: label %d has %d postings, directory says %d",
			ErrCorrupt, label, len(list), e.count)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if cached, ok := h.postings[label]; ok {
		return cached, nil
	}
	h.postings[label] = list
	return list, nil
}

// Root returns the root posting (the element with sequence number 0).
func (h *Handle) Root() (Posting, bool, error) {
	list, err := h.Postings(h.sum.root)
	if err != nil {
		return Posting{}, false, err
	}
	if len(list) == 0 || list[0].Seq != 0 {
		return Posting{}, false, nil
	}
	return list[0], true, nil
}
