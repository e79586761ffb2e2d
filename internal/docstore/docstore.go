// Package docstore is the NATIX document manager (paper §2.1): it
// maintains a catalog of named documents, converts between XML text and
// the stored tree form, and evaluates the simple path queries used in
// the paper's evaluation.
//
// Documents can be stored in two modes:
//
//   - ModeTree: through the tree storage manager (package core) — the
//     native representation whose clustering the split matrix governs;
//   - ModeFlat: as a serialized byte stream in the BLOB manager — the
//     "flat stream" baseline of §1, where structure is only accessible
//     by re-parsing.
//
// # Concurrency
//
// The store is safe for concurrent use under a two-level scheme. Read
// operations on a document (Query, QueryCount, ExportXML, Stats) take
// that document's read lock, so any number of them run in parallel —
// including against a document another goroutine is mutating a sibling
// of. A QueryIter cursor takes the same read lock and keeps it until
// the cursor is closed or exhausted, so writers of that document wait
// out open cursors (only). Catalog-only reads (Documents, Lookup, Tree) take just the
// catalog lock: they serialize with catalog updates, not with document
// content mutation. Mutations (ImportXML, ImportXMLBatch, ImportFlat,
// Delete, Convert, ReindexDocument, RegisterTree) take the target
// document's write lock and then a store-wide writer mutex — one
// mutator at a time, because they share the segment allocator and the
// catalog — so they exclude only readers of the same document, and a
// mutator still waiting for its document (blocked behind an open
// cursor) holds nothing and stalls no one. Readers of other documents
// never wait on a mutator; page-level integrity between a mutator and
// concurrent readers of unrelated records on shared pages is the
// buffer manager's frame latches' job.
//
// Lock order: per-document lock → writer mutex → catalog lock →
// package-internal locks (dict, caches, pool shards, frame latches).
// The document lock outranks the writer mutex so that a mutator
// waiting out a long-lived reader of one document (an open cursor)
// never blocks mutators of other documents.
// Code that mutates a tree directly through Tree's handle (the
// Document edit API, the benchmark harness) must wrap the mutation in
// Mutate, which takes the same locks the built-in mutators do.
package docstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"natix/internal/blobstore"
	"natix/internal/core"
	"natix/internal/dict"
	"natix/internal/noderep"
	"natix/internal/pathindex"
	"natix/internal/records"
	"natix/internal/segment"
	"natix/internal/telemetry"
	"natix/internal/wal"
	"natix/internal/xmlkit"
)

// Mode selects a document's storage representation.
type Mode uint8

// Document storage modes.
const (
	ModeTree Mode = iota // native XML storage (the paper's contribution)
	ModeFlat             // flat stream baseline
)

// AttrPrefix marks attribute labels in the dictionary: attribute a of an
// element is stored as a child aggregate labelled "@a" holding a string
// literal.
const AttrPrefix = dict.AttrPrefix

// Errors.
var (
	ErrNotFound  = errors.New("docstore: no such document")
	ErrDuplicate = errors.New("docstore: document already exists")
	ErrCorrupt   = errors.New("docstore: corrupt catalog")
	ErrNotTree   = errors.New("docstore: not a tree-mode document")
)

// DocInfo describes one catalog entry.
type DocInfo struct {
	Name string
	Mode Mode
	Root records.RID // tree root record (ModeTree) or blob head (ModeFlat)
}

// Store is the document manager.
type Store struct {
	trees *core.Store
	blobs *blobstore.Store
	dict  *dict.Dict
	seg   *segment.Segment

	// wmu serializes all mutating operations: they share the segment
	// allocator, the catalog blob and the path-index catalog, none of
	// which support two concurrent writers.
	wmu sync.Mutex

	// locks is the per-document lock table: name -> *sync.RWMutex.
	// Entries are created on demand and kept for the store's lifetime
	// (names recur; the table is bounded by the number of distinct
	// names ever used). A sync.Map so the lookup on every query and
	// match access is lock-free once the entry exists.
	locks sync.Map

	cmu       sync.RWMutex        // guards catalog
	catalog   map[string]*DocInfo // entries are mutated only under cmu
	catalogID records.RID         // catalog blob RID; touched only under wmu

	// qmu guards quarantined: documents the integrity scrubber found
	// damaged beyond repair. Operations against them fail fast with
	// ErrQuarantined; every other document keeps serving (see
	// quarantine.go). The set is in-memory only — a reopen rescans.
	qmu         sync.RWMutex
	quarantined map[string]string // name -> reason

	// headerCopy is the last-known-good image of the segment header
	// (page 0), captured at AttachWAL and refreshed at every checkpoint
	// while everything is flushed and wmu is held. It is the scrubber's
	// repair source for a corrupt header when the log holds no page-0
	// image — and the absence of such an image is exactly what proves
	// the header unchanged since the capture (any later change would
	// have logged a first-update image, which repair prefers).
	hmu        sync.RWMutex
	headerCopy []byte

	// walW, when attached, is the write-ahead log: Mutate and
	// InternLabel bracket their work with begin/commit records and roll
	// failures back from the log (see wal.go).
	walW *wal.Writer

	// pindex, when attached, is the persistent path-index store. It is
	// attached even in sessions that do not use the index so that
	// Delete always drops a document's index — otherwise a session
	// without indexing could delete and re-import a document and leave
	// a stale index for later sessions to answer queries from. indexOn
	// additionally enables building on import and answering queries.
	pindex  *pathindex.Store
	indexOn bool

	builds          atomic.Int64
	indexedQueries  atomic.Int64
	scanQueries     atomic.Int64
	flatQueries     atomic.Int64
	indexUnreadable atomic.Int64 // queries sent to the scan by a corrupt stored index

	// scanPool recycles the navigating source's walks — level stack and
	// child buffers — across queries (see machine.go); a warm navigating
	// scan allocates nothing per node.
	scanPool sync.Pool

	// readPool recycles readOut scratches across Markup, Text and export
	// calls (see readout.go).
	readPool sync.Pool

	// scratch parks the bulk imports' working memory between imports, at
	// most maxParkedScratch trimmed loadScratches (see scratch.go).
	scratchMu sync.Mutex
	scratch   []*loadScratch

	// tracer and the m* handles are set by AttachTelemetry (see
	// telemetry.go); all remain nil — and every use is nil-safe — on an
	// unattached store.
	tracer            *telemetry.Tracer
	mImports          *telemetry.Counter
	mMutations        *telemetry.Counter
	mCursorsOpened    *telemetry.Counter
	mCursorsExhausted *telemetry.Counter
	mCursorsAbandoned *telemetry.Counter
	mCursorRows       *telemetry.Counter
	mQueryIndexedNS   *telemetry.Histogram
	mQueryScanNS      *telemetry.Histogram
	mQueryFlatNS      *telemetry.Histogram
	mCheckpointNS     *telemetry.Histogram
	mImportParseNS    *telemetry.Counter
	mImportPackNS     *telemetry.Counter
	mImportWriteNS    *telemetry.Counter
}

// IndexStats counts path-index activity.
type IndexStats struct {
	Builds         int64 // index builds (imports and reindexes)
	IndexedQueries int64 // tree-mode queries answered from the index
	ScanQueries    int64 // tree-mode queries evaluated by navigation
}

// lockFor returns the named document's lock, creating it on first use.
// Locks are addressed by name independent of catalog membership, so a
// reader and an importer of the same not-yet-existing document still
// serialize correctly.
func (s *Store) lockFor(name string) *sync.RWMutex {
	if l, ok := s.locks.Load(name); ok {
		return l.(*sync.RWMutex)
	}
	l, _ := s.locks.LoadOrStore(name, new(sync.RWMutex))
	return l.(*sync.RWMutex)
}

// View runs fn holding the named document's read lock. Use it to wrap
// read-only access that goes through a Tree handle directly.
func (s *Store) View(name string, fn func() error) error {
	l := s.lockFor(name)
	l.RLock()
	defer l.RUnlock()
	return fn()
}

// Mutate runs fn holding the named document's write lock and the
// writer mutex — the locks every built-in mutator takes. Use it to wrap
// direct tree mutations (Document edits, harness-driven inserts),
// including their PrepareMutation/FinishBulk bracketing.
//
// The document lock comes first: a mutator stuck waiting for a busy
// document (readers — above all open cursors — hold document read
// locks for extended windows) must not sit on the store-wide mutex,
// or one slow cursor would stall mutations of every other document.
// The order is safe because no code path acquires a document lock
// while holding wmu, and each mutator locks exactly one document.
//
// With a write-ahead log attached, fn runs as one logged operation:
// its page effects become durable atomically at commit, and an error
// (or a crash) rolls every one of them back — see wal.go.
func (s *Store) Mutate(name string, fn func() error) error {
	if err := s.checkQuarantine(name); err != nil {
		return err
	}
	s.mMutations.Inc()
	l := s.lockFor(name)
	l.Lock()
	defer l.Unlock()
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.runOp("mutate:", name, fn)
}

// Create initializes a document manager over a fresh segment: the label
// dictionary and an empty catalog are created and registered.
func Create(trees *core.Store, d *dict.Dict) (*Store, error) {
	s := &Store{
		trees:   trees,
		blobs:   blobstore.New(trees.Records()),
		dict:    d,
		seg:     trees.Records().Segment(),
		catalog: make(map[string]*DocInfo),
	}
	if err := s.saveCatalog(); err != nil {
		return nil, err
	}
	return s, nil
}

// Open attaches to an existing document manager.
func Open(trees *core.Store, d *dict.Dict) (*Store, error) {
	s := &Store{
		trees:   trees,
		blobs:   blobstore.New(trees.Records()),
		dict:    d,
		seg:     trees.Records().Segment(),
		catalog: make(map[string]*DocInfo),
	}
	raw, err := s.seg.RootRID(segment.RootCatalog)
	if err != nil {
		return nil, err
	}
	if raw == 0 {
		return nil, errors.New("docstore: no catalog in segment")
	}
	var enc [records.RIDSize]byte
	binary.LittleEndian.PutUint64(enc[:], raw)
	s.catalogID = records.DecodeRID(enc[:])
	body, err := s.blobs.Read(s.catalogID)
	if err != nil {
		return nil, fmt.Errorf("docstore: load catalog: %w", err)
	}
	if err := s.decodeCatalog(body); err != nil {
		return nil, err
	}
	return s, nil
}

// Trees exposes the tree storage manager (for stats and tuning).
func (s *Store) Trees() *core.Store { return s.trees }

// Dict exposes the label dictionary.
func (s *Store) Dict() *dict.Dict { return s.dict }

// EnablePathIndex attaches a path-index store and turns indexing on:
// ImportXML / ImportXMLBatch build an index for each new tree-mode
// document, Delete drops it, mutations through FinishBulk drop it,
// and Query answers descendant steps from it when it can.
func (s *Store) EnablePathIndex(px *pathindex.Store) {
	s.pindex = px
	s.indexOn = true
}

// AttachPathIndex attaches a path-index store for maintenance only:
// Delete and FinishBulk drop stale indexes, but no indexes are built
// and queries never consult them. Sessions opened without indexing use
// this so they cannot strand stale indexes for later sessions.
func (s *Store) AttachPathIndex(px *pathindex.Store) { s.pindex = px }

// PathIndex returns the attached path-index store (nil when disabled).
func (s *Store) PathIndex() *pathindex.Store { return s.pindex }

// IndexStats returns the path-index activity counters.
func (s *Store) IndexStats() IndexStats {
	return IndexStats{
		Builds:         s.builds.Load(),
		IndexedQueries: s.indexedQueries.Load(),
		ScanQueries:    s.scanQueries.Load(),
	}
}

// buildIndex builds and persists the path index of a tree-mode document.
func (s *Store) buildIndex(name string, root records.RID) error {
	idx, err := pathindex.Build(s.trees, root)
	if err != nil {
		return fmt.Errorf("docstore: index %q: %w", name, err)
	}
	if err := s.pindex.Put(name, idx, nil); err != nil {
		return err
	}
	s.builds.Add(1)
	return nil
}

// ReindexDocument rebuilds the path index of a tree-mode document. It is
// the maintenance hook for documents mutated through the tree storage
// manager directly, mutated via FinishBulk (which drops the index), or
// imported before indexing was enabled.
func (s *Store) ReindexDocument(name string) error {
	return s.ReindexDocumentContext(context.Background(), name)
}

// ReindexDocumentContext is ReindexDocument with a cancellation point
// before the (uninterruptible) rebuild starts: once the index build is
// underway it runs to completion, so a cancelled context can never
// leave a half-written index.
func (s *Store) ReindexDocumentContext(cx context.Context, name string) error {
	if err := ctxErr(cx); err != nil {
		return err
	}
	sp := s.startOp("reindex", name)
	defer sp.End()
	return s.Mutate(name, func() error { return s.reindexLocked(name) })
}

func (s *Store) reindexLocked(name string) error {
	if s.pindex == nil || !s.indexOn {
		return errors.New("docstore: path index not enabled")
	}
	info, ok := s.lookup(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if info.Mode != ModeTree {
		return fmt.Errorf("%w: %q", ErrNotTree, name)
	}
	return s.buildIndex(name, info.Root)
}

// lookup returns a copy of the catalog entry for name. Copies, not the
// shared pointer: updateRoot mutates entries in place under cmu, and a
// reader must not observe that mid-operation.
func (s *Store) lookup(name string) (DocInfo, bool) {
	s.cmu.RLock()
	defer s.cmu.RUnlock()
	info, ok := s.catalog[name]
	if !ok {
		return DocInfo{}, false
	}
	return *info, true
}

// encodeCatalog serializes the catalog: count, then entries.
func (s *Store) encodeCatalog() []byte {
	s.cmu.RLock()
	defer s.cmu.RUnlock()
	names := make([]string, 0, len(s.catalog))
	for n := range s.catalog {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]byte, 4)
	binary.LittleEndian.PutUint32(out, uint32(len(names)))
	var tmp [records.RIDSize]byte
	for _, n := range names {
		info := s.catalog[n]
		var l [2]byte
		binary.LittleEndian.PutUint16(l[:], uint16(len(n)))
		out = append(out, l[:]...)
		out = append(out, n...)
		out = append(out, byte(info.Mode))
		info.Root.Put(tmp[:])
		out = append(out, tmp[:]...)
	}
	return out
}

func (s *Store) decodeCatalog(b []byte) error {
	if len(b) < 4 {
		return ErrCorrupt
	}
	count := int(binary.LittleEndian.Uint32(b))
	pos := 4
	for i := 0; i < count; i++ {
		if pos+2 > len(b) {
			return fmt.Errorf("%w: truncated entry %d", ErrCorrupt, i)
		}
		n := int(binary.LittleEndian.Uint16(b[pos:]))
		pos += 2
		if pos+n+1+records.RIDSize > len(b) {
			return fmt.Errorf("%w: truncated entry %d", ErrCorrupt, i)
		}
		name := string(b[pos : pos+n])
		pos += n
		mode := Mode(b[pos])
		pos++
		root := records.DecodeRID(b[pos : pos+records.RIDSize])
		pos += records.RIDSize
		s.catalog[name] = &DocInfo{Name: name, Mode: mode, Root: root}
	}
	return nil
}

// saveCatalog persists the catalog blob and re-registers it in the
// segment header. Called only from mutator context (under wmu, or
// during single-threaded construction).
func (s *Store) saveCatalog() error {
	body := s.encodeCatalog()
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
	return s.seg.SetRootRID(segment.RootCatalog, binary.LittleEndian.Uint64(enc[:]))
}

// Documents lists the catalog in name order.
func (s *Store) Documents() []DocInfo {
	s.cmu.RLock()
	out := make([]DocInfo, 0, len(s.catalog))
	for _, info := range s.catalog {
		out = append(out, *info)
	}
	s.cmu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup returns the catalog entry for name.
func (s *Store) Lookup(name string) (DocInfo, error) {
	info, ok := s.lookup(name)
	if !ok {
		return DocInfo{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return info, nil
}

// Tree returns a handle to a tree-mode document. Reads through the
// handle must be wrapped in View, mutations in Mutate, unless the
// caller is single-threaded.
func (s *Store) Tree(name string) (*core.Tree, error) {
	info, ok := s.lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if info.Mode != ModeTree {
		return nil, fmt.Errorf("%w: %q", ErrNotTree, name)
	}
	return s.trees.OpenTree(info.Root), nil
}

// Delete removes a document and its storage, dropping its path index.
func (s *Store) Delete(name string) error {
	return s.DeleteContext(context.Background(), name)
}

// DeleteContext is Delete with a cancellation point before the locks
// are taken. A delete that has started runs to completion: stopping a
// half-freed document midway would be strictly worse than finishing.
func (s *Store) DeleteContext(cx context.Context, name string) error {
	if err := ctxErr(cx); err != nil {
		return err
	}
	sp := s.startOp("delete", name)
	defer sp.End()
	return s.Mutate(name, func() error { return s.deleteLocked(name) })
}

func (s *Store) deleteLocked(name string) error {
	info, ok := s.lookup(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if s.pindex != nil {
		if err := s.pindex.Drop(name); err != nil {
			return err
		}
	}
	switch info.Mode {
	case ModeTree:
		if err := s.trees.OpenTree(info.Root).DeleteTree(); err != nil {
			return err
		}
	case ModeFlat:
		if err := s.blobs.Delete(info.Root); err != nil {
			return err
		}
	}
	s.cmu.Lock()
	delete(s.catalog, name)
	s.cmu.Unlock()
	return s.saveCatalog()
}

// register adds a catalog entry. Mutator context.
func (s *Store) register(info *DocInfo) error {
	s.cmu.Lock()
	if _, ok := s.catalog[info.Name]; ok {
		s.cmu.Unlock()
		return fmt.Errorf("%w: %q", ErrDuplicate, info.Name)
	}
	s.catalog[info.Name] = info
	s.cmu.Unlock()
	return s.saveCatalog()
}

// updateRoot persists a changed root RID (tree roots move when the root
// record splits). Mutator context: only a mutator changes the catalog,
// so the entry is read under the read lock — beside the readers looking
// documents up, not waiting for them to leave — and the write lock is
// taken only for the rare edit that moved the root.
func (s *Store) updateRoot(name string, root records.RID) error {
	s.cmu.RLock()
	info, ok := s.catalog[name]
	moved := ok && info.Root != root
	s.cmu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if !moved {
		return nil
	}
	s.cmu.Lock()
	info.Root = root
	s.cmu.Unlock()
	return s.saveCatalog()
}

// labelFor interns an element name. Mutator context (the import paths
// that call it already hold the writer mutex).
func (s *Store) labelFor(name string) (dict.LabelID, error) {
	return s.dict.Intern(name)
}

// InternLabel interns a label under the store's writer mutex. Callers
// outside the docstore mutators (SetPolicy, Document edits) must use
// this instead of Dict().Intern: interning an unseen label persists
// the grown dictionary blob, which allocates pages — and the segment
// allocator requires a single mutator at a time. Interning an existing
// label short-circuits on the dictionary's lock-free fast path before
// the mutex is taken.
func (s *Store) InternLabel(name string) (dict.LabelID, error) {
	if id, ok := s.dict.Lookup(name); ok {
		return id, nil
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	var id dict.LabelID
	err := s.runOp("intern:", name, func() error {
		var err error
		id, err = s.dict.Intern(name)
		return err
	})
	return id, err
}

// ImportXML stores an XML document in tree mode through the streaming
// bulk path: the reader is tokenized incrementally and subtrees are
// packed bottom-up into maximal records, each written exactly once,
// with the path index (when enabled) built in the same pass. It returns
// the document info.
func (s *Store) ImportXML(name string, r io.Reader) (DocInfo, error) {
	return s.ImportXMLContext(context.Background(), name, r)
}

// ImportXMLContext is ImportXML honoring a context: cancellation is
// checked per parse event, and a cancelled (or failed) import rolls
// every stored record back before returning, leaving no trace in the
// store.
//
// Parsing is interleaved with storage — the single pass is the point —
// so the document lock AND the store-wide writer mutex are held while
// the reader drains, and a read blocked inside the reader is not
// interruptible by the context (cancellation takes effect at the next
// parse event). A reader that stalls indefinitely therefore stalls all
// other mutations for its duration. Feed imports from sources that
// make progress (files, buffers); wrap network streams with read
// deadlines or spool them to disk first.
func (s *Store) ImportXMLContext(cx context.Context, name string, r io.Reader) (DocInfo, error) {
	sp := s.startOp("import", name)
	defer sp.End()
	s.mImports.Inc()
	var info DocInfo
	err := s.Mutate(name, func() error {
		var err error
		p := xmlkit.NewStreamParser(r, xmlkit.ParseOptions{})
		info, err = s.importStreamLocked(cx, name, p, sp)
		return err
	})
	return info, err
}

// ImportTreeIncremental stores a parsed XML tree by per-node pre-order
// insertion through the paper's tree growth procedure (figure 5) — one
// storage-manager insert per logical node, exactly what post-load
// mutations do. The bulk path replaced it for imports; it remains the
// reference implementation the equivalence tests and import benchmarks
// compare against.
func (s *Store) ImportTreeIncremental(name string, root *xmlkit.Node) (DocInfo, error) {
	sp := s.startOp("import_incremental", name)
	defer sp.End()
	s.mImports.Inc()
	var info DocInfo
	err := s.Mutate(name, func() error {
		var err error
		info, err = s.importTreeIncrementalLocked(context.Background(), name, root)
		return err
	})
	return info, err
}

func (s *Store) importTreeIncrementalLocked(cx context.Context, name string, root *xmlkit.Node) (DocInfo, error) {
	if _, ok := s.lookup(name); ok {
		return DocInfo{}, fmt.Errorf("%w: %q", ErrDuplicate, name)
	}
	if root.IsText() {
		return DocInfo{}, errors.New("docstore: document root must be an element")
	}
	label, err := s.labelFor(root.Name)
	if err != nil {
		return DocInfo{}, err
	}
	tree, err := s.trees.CreateTree(label)
	if err != nil {
		return DocInfo{}, err
	}
	// On any failure past this point — a cancelled context included —
	// the partially built tree is torn down (best effort) so a failed
	// import does not strand unreferenced records in the segment. With
	// a write-ahead log the teardown is unnecessary: Mutate rolls the
	// whole operation back from the log.
	fail := func(err error) (DocInfo, error) {
		if s.walW == nil {
			_ = tree.DeleteTree()
		}
		return DocInfo{}, err
	}
	// Root attributes first, then children, all in pre-order.
	if err := s.insertXMLChildren(cx, tree, core.Path{}, root); err != nil {
		return fail(err)
	}
	info := &DocInfo{Name: name, Mode: ModeTree, Root: tree.RootRID()}
	// Index before registering: a failed build must not leave a
	// registered-but-unindexed document behind a returned error.
	if s.pindex != nil && s.indexOn {
		if err := s.buildIndex(name, info.Root); err != nil {
			return fail(err)
		}
	}
	if err := s.register(info); err != nil {
		if s.pindex != nil && s.indexOn && s.walW == nil {
			_ = s.pindex.Drop(name) // best-effort rollback (log-driven otherwise)
		}
		return fail(err)
	}
	return *info, nil
}

// insertXMLChildren appends attributes and children of src under the
// node at path, recursing in pre-order. The context is checked before
// every inserted node — each insert touches pages.
func (s *Store) insertXMLChildren(cx context.Context, tree *core.Tree, path core.Path, src *xmlkit.Node) error {
	pos := 0
	for _, a := range src.Attrs {
		if err := ctxErr(cx); err != nil {
			return err
		}
		alabel, err := s.labelFor(AttrPrefix + a.Name)
		if err != nil {
			return err
		}
		attr := noderep.NewAggregate(alabel)
		if err := tree.InsertChild(path, pos, attr); err != nil {
			return err
		}
		if err := tree.InsertChild(append(path.Clone(), pos), 0, noderep.NewTextLiteral(a.Value)); err != nil {
			return err
		}
		pos++
	}
	for _, c := range src.Children {
		if err := ctxErr(cx); err != nil {
			return err
		}
		if c.IsText() {
			n, err := s.insertText(tree, path, pos, c.Text)
			if err != nil {
				return err
			}
			pos += n
			continue
		}
		label, err := s.labelFor(c.Name)
		if err != nil {
			return err
		}
		if err := tree.InsertChild(path, pos, noderep.NewAggregate(label)); err != nil {
			return err
		}
		if err := s.insertXMLChildren(cx, tree, append(path.Clone(), pos), c); err != nil {
			return err
		}
		pos++
	}
	return nil
}

// insertText inserts one text node, chunking very long runs so no single
// literal exceeds the storage manager's per-node limit. It returns the
// number of sibling literals inserted, which the caller must advance its
// position by — a chunked run occupies several child slots.
func (s *Store) insertText(tree *core.Tree, path core.Path, pos int, text string) (int, error) {
	limit := s.trees.Records().MaxRecordSize() / 2
	if len(text) <= limit {
		return 1, tree.InsertChild(path, pos, noderep.NewTextLiteral(text))
	}
	// Chunk the run into sibling literals; Text and export concatenate them
	// back.
	inserted := 0
	for i := 0; i < len(text); i += limit {
		end := i + limit
		if end > len(text) {
			end = len(text)
		}
		if err := tree.InsertChild(path, pos, noderep.NewTextLiteral(text[i:end])); err != nil {
			return inserted, err
		}
		pos++
		inserted++
	}
	return inserted, nil
}

// PrepareMutation drops the document's path index ahead of a tree
// mutation. Mutations invalidate the postings (they address nodes by
// record and position), and dropping first fails closed: if the drop
// cannot be persisted the mutation is refused, so a live index can
// never address post-mutation positions. Queries fall back to the
// scan until ReindexDocument rebuilds the index. Call within Mutate.
func (s *Store) PrepareMutation(name string) error {
	if s.pindex == nil {
		return nil
	}
	return s.pindex.Drop(name)
}

// FinishBulk persists any root-RID change after bulk mutations. The
// index was dropped by PrepareMutation; dropping again here covers
// callers that mutate without announcing. Call within Mutate.
func (s *Store) FinishBulk(name string, tree *core.Tree) error {
	if s.pindex != nil {
		if err := s.pindex.Drop(name); err != nil {
			return err
		}
	}
	return s.updateRoot(name, tree.RootRID())
}

// ImportFlat stores the XML text verbatim as a BLOB (the flat-stream
// baseline). The text is validated by parsing first, before any lock
// is taken.
func (s *Store) ImportFlat(name string, r io.Reader) (DocInfo, error) {
	return s.ImportFlatContext(context.Background(), name, r)
}

// ImportFlatContext is ImportFlat with cancellation points before the
// reader is drained and before the blob is written; the write itself
// is atomic from the catalog's point of view.
func (s *Store) ImportFlatContext(cx context.Context, name string, r io.Reader) (DocInfo, error) {
	// Racy duplicate pre-check so an existing name is rejected before
	// the reader is drained; importFlatLocked re-checks authoritatively.
	if _, ok := s.lookup(name); ok {
		return DocInfo{}, fmt.Errorf("%w: %q", ErrDuplicate, name)
	}
	if err := ctxErr(cx); err != nil {
		return DocInfo{}, err
	}
	sp := s.startOp("import_flat", name)
	defer sp.End()
	s.mImports.Inc()
	ch := sp.Child("parse")
	text, err := io.ReadAll(r)
	if err != nil {
		ch.End()
		return DocInfo{}, err
	}
	if err := ctxErr(cx); err != nil {
		ch.End()
		return DocInfo{}, err
	}
	if err := checkWellFormed(text); err != nil {
		ch.End()
		return DocInfo{}, fmt.Errorf("docstore: flat import: %w", err)
	}
	ch.Add("bytes", int64(len(text)))
	ch.End()
	ch = sp.Child("write")
	defer ch.End()
	var info DocInfo
	err = s.Mutate(name, func() error {
		var err error
		info, err = s.importFlatLocked(name, text)
		return err
	})
	return info, err
}

// checkWellFormed drains a stream parser over text: the flat route
// accepts exactly the documents the tree route does.
func checkWellFormed(text []byte) error {
	p := xmlkit.NewStreamParser(bytes.NewReader(text), xmlkit.ParseOptions{})
	for {
		if _, err := p.Next(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

func (s *Store) importFlatLocked(name string, text []byte) (DocInfo, error) {
	if _, ok := s.lookup(name); ok {
		return DocInfo{}, fmt.Errorf("%w: %q", ErrDuplicate, name)
	}
	id, err := s.blobs.Write(text, 0)
	if err != nil {
		return DocInfo{}, err
	}
	info := &DocInfo{Name: name, Mode: ModeFlat, Root: id}
	if err := s.register(info); err != nil {
		return DocInfo{}, err
	}
	return *info, nil
}

// ExportXML serializes a document back to XML markup. A tree-mode
// document is written straight from its records, in one walk, and
// reaches w in writes of a whole number of exportChunk bytes (the last
// one excepted); when the export fails part-way, w has received the
// chunks completed before the error and nothing after them.
func (s *Store) ExportXML(name string, w io.Writer) error {
	return s.ExportXMLContext(context.Background(), name, w)
}

// ExportXMLContext is ExportXML honoring a context, checked at the start
// and before each element whose children are expanded — the walk reads
// the records behind proxies only there — so per record access, not per
// element.
func (s *Store) ExportXMLContext(cx context.Context, name string, w io.Writer) error {
	if err := s.checkQuarantine(name); err != nil {
		return err
	}
	sp := s.startOp("export", name)
	defer sp.End()
	l := s.lockFor(name)
	l.RLock()
	defer l.RUnlock()
	return s.exportXMLLocked(cx, name, w)
}

func (s *Store) exportXMLLocked(cx context.Context, name string, w io.Writer) error {
	info, ok := s.lookup(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	switch info.Mode {
	case ModeFlat:
		body, err := s.blobs.Read(info.Root)
		if err != nil {
			return err
		}
		_, err = w.Write(body)
		return err
	default:
		root, err := s.trees.ReadRoot(info.Root)
		if err != nil {
			return err
		}
		ro := s.getReadOut(w)
		defer s.putReadOut(ro)
		if err := s.writeXML(cx, ro, &root); err != nil {
			return err
		}
		return ro.flush(true)
	}
}

// RegisterTree adds a catalog entry for a tree that was built directly
// through the tree storage manager (the benchmark harness drives
// insertion orders itself).
func (s *Store) RegisterTree(name string, tree *core.Tree) (DocInfo, error) {
	var info DocInfo
	err := s.Mutate(name, func() error {
		entry := &DocInfo{Name: name, Mode: ModeTree, Root: tree.RootRID()}
		if err := s.register(entry); err != nil {
			return err
		}
		info = *entry
		return nil
	})
	return info, err
}

// Convert re-stores a document in the other representation (tree ↔
// flat) under the same name, preserving content. Converting to flat
// serializes the tree; converting to tree streams the text through
// ImportXML's import pipeline. This is the migration path between the
// paper's storage categories (§1). The whole conversion holds the
// document's write lock, so readers see either the old representation
// or the new one, never the gap between delete and re-import.
func (s *Store) Convert(name string, to Mode) error {
	return s.ConvertContext(context.Background(), name, to)
}

// ConvertContext is Convert honoring a context during the reversible
// phase only: serializing the old representation checks cancellation
// per record, and a final check runs before the old form is dropped.
// Once replacement begins the conversion ignores the context — a
// cancelled half-replaced document would be lost, not preserved.
func (s *Store) ConvertContext(cx context.Context, name string, to Mode) error {
	sp := s.startOp("convert", name)
	defer sp.End()
	return s.Mutate(name, func() error { return s.convertLocked(cx, name, to, sp) })
}

func (s *Store) convertLocked(cx context.Context, name string, to Mode, sp *telemetry.Span) error {
	info, ok := s.lookup(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if info.Mode == to {
		return nil
	}
	var buf strings.Builder
	if err := s.exportXMLLocked(cx, name, &buf); err != nil {
		return err
	}
	// Last chance to back out: nothing has been modified yet. From here
	// on the operation runs to completion on context.Background.
	if err := ctxErr(cx); err != nil {
		return err
	}
	if err := s.deleteLocked(name); err != nil {
		return err
	}
	if to == ModeFlat {
		_, err := s.importFlatLocked(name, []byte(buf.String()))
		return err
	}
	p := xmlkit.NewStreamParser(strings.NewReader(buf.String()), xmlkit.ParseOptions{})
	_, err := s.importStreamLocked(context.Background(), name, p, sp)
	return err
}
