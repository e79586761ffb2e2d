// Package natix is a native XML repository: a storage manager for
// tree-structured documents that keeps dynamically maintained clusters
// of tree nodes in page-sized physical records.
//
// It is a from-scratch Go implementation of the system described in
// Carl-Christian Kanne and Guido Moerkotte, "Efficient Storage of XML
// Data" (Universität Mannheim tech report 8/1999; ICDE 2000). Rather
// than serializing documents into byte streams (flat files, BLOBs) or
// scattering one database object per tree node (the metamodeling
// approach), NATIX partitions each document tree into subtrees stored in
// records of at most one page, splitting records along the tree
// structure as documents grow and re-linking the pieces with proxy
// nodes. A configurable split matrix lets applications pin specific
// parent/child label pairs together or force them apart; its two
// degenerate settings reproduce the classical designs, which is also how
// the paper benchmarks them.
//
// # Quick start
//
//	db, err := natix.Open(natix.Options{Path: "plays.natix"})
//	if err != nil { ... }
//	defer db.Close()
//	err = db.ImportXML("othello", file)
//
//	// Stream matches lazily: records load only as matches are pulled.
//	cur, err := db.QueryIter(ctx, "othello", "/PLAY/ACT[3]/SCENE[2]//SPEAKER")
//	if err != nil { ... }
//	defer cur.Close()
//	for cur.Next() {
//		text, _ := cur.Match().Text()
//	}
//	if err := cur.Err(); err != nil { ... }
//
//	// Or materialize everything in one call.
//	matches, err := db.Query("othello", "//SCENE/SPEECH[1]")
//
// Queries parse once and evaluate many times via DB.Prepare; every
// operation has a Context-suffixed variant (and QueryIter takes a ctx
// directly) whose cancellation is honored at page-fetch granularity, so
// a "first 10 results" consumer pays for 10 matches, not the whole
// result set, and a runaway scan dies with its context.
//
// # Path index
//
// Opening a store with Options.PathIndex enables a persistent
// structural index (package pathindex): each imported document gets a
// path summary — the trie of distinct root-to-node label paths with
// occurrence counts — plus per-label posting lists of logical node
// addresses. Descendant steps such as //SPEAKER are then answered by
// probing the postings and filtering by containment, loading only the
// records that hold matches, instead of walking every record of the
// document. The index wins exactly when a query's matches touch a small
// fraction of the document; a full-document query saves nothing.
//
// Queries whose steps include the "*" or "#text" name tests fall back
// to the navigating evaluator, as do documents without a stored index
// (for example ones imported while PathIndex was off — see
// DB.ReindexDocument). Results are identical on both paths. The index
// is maintained automatically: built during ImportXML, dropped on
// Delete, and dropped + rebuilt on Convert. Editing a document through
// the Document API drops its index (postings address physical node
// positions, which edits invalidate); queries fall back to the scan
// until ReindexDocument rebuilds it.
//
// # Durability
//
// Opening a store with Options.WAL makes the write path durable: every
// mutation runs as one operation in a write-ahead log (a "<Path>-wal"
// file next to the database), committed with a single group-commit
// sync. A store that crashed — kill -9, power loss, a torn page write
// — is repaired by restart recovery on the next Open: committed
// operations are replayed, the interrupted one is rolled back, and
// every document comes back either fully present or fully absent.
// DB.Flush becomes a real checkpoint (after it, nothing depends on
// the log) and Options.NoSync trades the per-commit sync away where
// throughput matters more than the last few commits. Every page also
// carries a checksum, verified on read (ErrCorrupted), so torn writes
// are detected rather than decoded as garbage.
//
// # Integrity and self-healing
//
// The store verifies itself, not just its reads. An integrity scrub
// (DB.ScrubNow, or continuously via Options.ScrubInterval) sweeps
// every allocated page, verifies checksums and cross-structure
// invariants, and heals what it can: pages covered by a full image in
// the current write-ahead-log epoch are rebuilt byte-for-byte in
// place, free-space-inventory pages are recomputed from the pages they
// cover, and damage with no repair source quarantines exactly the
// affected documents — their operations fail fast with ErrQuarantined
// while every other document keeps serving reads and writes.
// Transient device errors (a momentary EIO) are absorbed by bounded
// retry with backoff at every I/O site, visible only as a counter.
//
//	db, _ := natix.Open(natix.Options{
//		Path: "plays.natix", WAL: true,
//		ScrubInterval: 10 * time.Minute, ScrubRateLimit: 5000,
//	})
//	rep, err := db.ScrubNow() // or wait for the background pass
//	if err == nil && !rep.Clean() {
//		log.Printf("repaired %d pages, quarantined %v",
//			len(rep.Repaired), rep.Quarantined)
//	}
//
// The cmd/natix-check tool runs the same verification offline against
// a closed database file and exits 0 (clean), 1 (repaired) or 2
// (quarantine-level damage).
//
// See the examples directory for runnable programs and DESIGN.md for
// the system inventory.
package natix

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"natix/internal/buffer"
	"natix/internal/core"
	"natix/internal/dict"
	"natix/internal/docstore"
	"natix/internal/integrity"
	"natix/internal/noderep"
	"natix/internal/pagedev"
	"natix/internal/pathindex"
	"natix/internal/records"
	"natix/internal/segment"
	"natix/internal/telemetry"
	"natix/internal/wal"
)

// Policy is a split-matrix entry: the clustering preference for a
// (parent element, child element) pair (paper §3.3).
type Policy = core.Policy

// Split matrix policies.
const (
	// Other lets the split algorithm decide (the default).
	Other = core.PolicyOther
	// Standalone (the paper's 0) always stores such children as records
	// of their own.
	Standalone = core.PolicyStandalone
	// Cluster (the paper's ∞) keeps such children in their parent's
	// record as long as possible.
	Cluster = core.PolicyCluster
)

// Options configure a repository.
type Options struct {
	// Path is the database file. Empty means an in-memory store.
	Path string

	// PageSize in bytes: a power of two between 512 and 32768 ("Pages
	// can be as large as 32K", §2.1). Default 8192. Must match the file
	// when opening an existing store.
	PageSize int

	// BufferBytes sizes the buffer pool. Default 2 MB (the paper's
	// setting, §4.2).
	BufferBytes int

	// SplitTarget is the desired left-partition fraction on splits,
	// in (0,1). Zero means the default, 0.5; Open rejects anything else
	// outside (0,1) with ErrBadOptions.
	SplitTarget float64

	// SplitTolerance is the minimum splittable subtree size in bytes.
	// Default: one tenth of the net page capacity.
	SplitTolerance int

	// DefaultPolicy seeds the split matrix (§3.3). The zero value is
	// Other — the paper's native configuration. Standalone reproduces
	// one-record-per-node systems. Like the paper's, the matrix is a
	// runtime tuning parameter: it is not persisted, so supply the same
	// configuration (and SetPolicy calls) when reopening a store.
	DefaultPolicy Policy

	// MergeOnDelete re-clusters shrunken records into their parents.
	MergeOnDelete bool

	// SimulateDisk routes every physical page access through a cost
	// model of the paper's IBM DCAS-34330W disk; SimStats reports the
	// accumulated simulated time. Only valid with in-memory stores.
	SimulateDisk bool

	// PathIndex maintains a persistent structural index per tree-mode
	// document (path summary + element postings) and answers descendant
	// steps from it. Indexes built in earlier sessions are picked up
	// when reopening a store; documents imported while it was off can
	// be indexed later with ReindexDocument.
	PathIndex bool

	// WAL enables the write-ahead log: every mutation (ImportXML,
	// Delete, Convert, ReindexDocument, Document edits) runs as one
	// atomic, durable operation. For file stores the log lives next to
	// the database file as "<Path>-wal". A store that crashed mid-
	// mutation is repaired by restart recovery on the next Open — each
	// operation is then either fully present or fully absent —
	// regardless of whether the new session sets WAL. DB.Flush becomes
	// a real checkpoint. See DESIGN.md, "Durability and recovery".
	WAL bool

	// NoSync, with WAL, skips the per-commit durability barrier. A
	// returned commit has its log records in the operating system's
	// page cache: it survives the death of the process, not of the
	// machine, which may lose the last few committed operations. The
	// file can never become corrupt, and atomicity across crashes is
	// preserved. On Linux a file store's commit then makes no system
	// call: the log's tail is a shared mapping of its file. A
	// deliberate speed/durability trade, like SQLite's
	// "synchronous=off".
	NoSync bool

	// Tracing records an operation trace (span tree with phase
	// durations and attributes) for every engine operation — imports,
	// queries, cursors, checkpoints — into a bounded in-memory ring
	// read by DB.RecentTraces. Metrics (DB.Metrics) are always on;
	// tracing is the opt-in half of the telemetry subsystem because it
	// allocates per operation.
	Tracing bool

	// TraceBuffer bounds the trace ring (0 = 256 traces). The ring
	// keeps the newest traces; older ones fall off.
	TraceBuffer int

	// SlowOpThreshold, when positive, records every operation slower
	// than the threshold into the slow-op log (DB.SlowOps) and hands it
	// to SlowOpSink if one is set. Implies span collection for the
	// operations it times, even when Tracing is off.
	SlowOpThreshold time.Duration

	// SlowOpSink, when set, receives each slow operation synchronously
	// as it completes. Keep it fast (hand off to a channel or logger);
	// it runs on the operation's goroutine.
	SlowOpSink func(SlowOp)

	// ScrubInterval, when positive, runs the integrity scrubber in the
	// background every interval: allocated pages are verified against
	// their checksums and the cross-structure invariants, damage is
	// repaired from the write-ahead log where an image exists, and
	// unrepairable damage quarantines the affected documents (see
	// DB.ScrubNow). Zero disables background scrubbing; DB.ScrubNow
	// remains available either way.
	ScrubInterval time.Duration

	// ScrubRateLimit bounds each scrub pass at this many pages per
	// second (0 = unlimited), so background verification cannot
	// monopolize the device under foreground load.
	ScrubRateLimit int

	// walBufLimit overrides the log append-buffer size (crash tests
	// shrink it so every log record is a separate write, and therefore
	// a separate injectable crash point).
	walBufLimit int
}

func (o Options) withDefaults() Options {
	if o.PageSize == 0 {
		o.PageSize = 8192
	}
	if o.BufferBytes == 0 {
		o.BufferBytes = 2 << 20
	}
	return o
}

// recordCacheSize bounds the record cache, in records: the stored images
// readers work on in place, and the trees edits decode from them. The
// cache saves copying and decoding CPU; all I/O still flows through the
// buffer pool.
const recordCacheSize = 4096

// DB is an open repository. All methods are safe for concurrent use,
// and the read path is built to scale with cores rather than serialize
// (the paper's system is single-user; this implementation adds the
// multi-user concurrency control):
//
//   - Read operations — Query, QueryCount, QueryIter cursors,
//     ExportXML, Documents, Stats — run concurrently with each other,
//     on the same document or different ones. An open cursor holds its
//     document's read lock until Close or exhaustion, so it blocks
//     mutations of that document (only) for its lifetime.
//   - Mutations — ImportXML, ImportXMLFlat, Delete, Convert,
//     ReindexDocument, SetPolicy, Document edits — are serialized
//     against each other by a store-wide writer lock and exclude
//     readers of the document they touch via that document's
//     read–write lock. Readers of other documents proceed
//     concurrently with a mutation.
//   - Below the API, the buffer pool serves hits without a pool-wide
//     lock (sharded page table, atomic pin counts) and guards page
//     bytes with per-frame latches; the record and path-index
//     caches take sharded or per-entry locks; dictionary lookups are
//     lock-free snapshot reads; statistics counters are atomics.
//
// DB.mu is only the lifecycle lock: every operation holds it shared to
// fence Close, which takes it exclusively and therefore waits for
// in-flight operations to drain. A cursor's Next is not such an
// operation: it reads closing, which Close raises before it waits, and
// stops there (see Cursor). See DESIGN.md ("Concurrency model") for the
// full lock order.
type DB struct {
	mu       sync.RWMutex // lifecycle: ops hold shared, Close exclusive
	closing  atomic.Bool  // raised by Close before it waits for mu; read per cursor Next
	opts     Options
	dev      pagedev.Device
	sim      *pagedev.SimDisk
	pool     *buffer.Pool
	store    *docstore.Store
	matrix   *core.SplitMatrix
	wal      *wal.Writer // nil when Options.WAL is off
	walSt    wal.Storage // open log storage (may outlive wal when WAL is off)
	reg      *telemetry.Registry
	tracer   *telemetry.Tracer // nil unless Tracing or a slow-op log is on
	recovery RecoveryStats
	closed   bool

	// scrubber is the integrity subsystem; always constructed (ScrubNow
	// works on every store), with the background loop running only when
	// Options.ScrubInterval is set.
	scrubber  *integrity.Scrubber
	scrubStop chan struct{} // nil when no background loop was started
	scrubDone chan struct{}
	stopOnce  sync.Once
}

// RecoveryStats describes what restart recovery did when the store was
// opened (all zero for a cleanly closed store).
type RecoveryStats struct {
	// Recovered is true when the previous session did not close
	// cleanly and the log was replayed.
	Recovered bool
	// RedoneOps counts committed operations whose effects were
	// reapplied; UndoneOps counts interrupted operations rolled back.
	RedoneOps, UndoneOps int
	// PagesWritten counts device pages recovery rewrote.
	PagesWritten int
}

// Recovery reports what restart recovery did during Open.
func (db *DB) Recovery() (RecoveryStats, error) {
	return viewE(db, func() (RecoveryStats, error) { return db.recovery, nil })
}

// Open opens the store at opts.Path, creating it if it does not exist
// (or creating an in-memory store when Path is empty). If the store
// was not closed cleanly and a write-ahead log is present, restart
// recovery runs first — whether or not this session enables WAL — so
// the opened store always contains exactly the committed operations.
func Open(opts Options) (*DB, error) {
	opts = opts.withDefaults()
	if !pagedev.ValidPageSize(opts.PageSize) {
		return nil, fmt.Errorf("%w: invalid page size %d", ErrBadOptions, opts.PageSize)
	}
	if t := opts.SplitTarget; !(t >= 0 && t < 1) { // NaN fails both
		return nil, fmt.Errorf("%w: split target %v outside [0,1)", ErrBadOptions, t)
	}

	var (
		dev      pagedev.Device
		sim      *pagedev.SimDisk
		walSt    wal.Storage
		existing bool
		err      error
	)
	if opts.Path == "" {
		mem, err := pagedev.NewMem(opts.PageSize)
		if err != nil {
			return nil, err
		}
		dev = mem
		if opts.SimulateDisk {
			sim = pagedev.NewSimDisk(mem, pagedev.DCAS34330W)
			dev = sim
		}
		if opts.WAL {
			walSt = wal.NewMemStorage()
		}
	} else {
		if opts.SimulateDisk {
			return nil, fmt.Errorf("%w: SimulateDisk requires an in-memory store", ErrBadOptions)
		}
		if st, err := os.Stat(opts.Path); err == nil && st.Size() > 0 {
			existing = true
		}
		dev, err = pagedev.OpenFile(opts.Path, opts.PageSize)
		if err != nil {
			return nil, err
		}
		walPath := opts.Path + "-wal"
		// A NoSync log's appends go into a shared mapping of its tail,
		// so its commits make no system call; a synced log keeps
		// writing with pwrite, which the fsync after it does not make
		// dearer (see wal.OpenMappedFileStorage).
		openLog := wal.OpenFileStorage
		if opts.WAL && opts.NoSync {
			openLog = wal.OpenMappedFileStorage
		}
		// The log is opened when this session wants WAL, or when a
		// previous session left one behind (it may hold records a
		// crashed mutation needs recovered, even if this session runs
		// unlogged).
		if st, err := os.Stat(walPath); opts.WAL || (err == nil && st.Size() > 0) {
			walSt, err = openLog(walPath)
			if err != nil {
				dev.Close()
				return nil, err
			}
		}
	}
	db, err := openWith(opts, dev, sim, walSt, existing)
	if err != nil {
		if walSt != nil {
			walSt.Close()
		}
		dev.Close()
		return nil, err
	}
	return db, nil
}

// openWith assembles a DB over explicit devices. Crash-recovery tests
// call it directly with fault-injecting wrappers; Open builds the real
// devices.
func openWith(opts Options, dev pagedev.Device, sim *pagedev.SimDisk, walSt wal.Storage, existing bool) (*DB, error) {
	// Restart recovery: before anything reads the segment, replay the
	// log against the device. A cleanly closed (or never-logged) store
	// makes this a no-op.
	var recovery RecoveryStats
	if existing && walSt != nil {
		res, err := wal.Recover(dev, walSt)
		if err != nil {
			return nil, fmt.Errorf("natix: recovery: %w", err)
		}
		recovery = RecoveryStats{
			Recovered:    res.Recovered,
			RedoneOps:    res.RedoneOps,
			UndoneOps:    res.UndoneOps,
			PagesWritten: res.PagesWritten,
		}
	}
	var (
		w   *wal.Writer
		err error
	)
	if !existing && walSt != nil {
		// A leftover log from a deleted database file describes pages
		// that no longer exist: discard it — whether or not this
		// session logs — so a later Open can never replay it onto the
		// freshly created database.
		if err := walSt.Truncate(0); err != nil {
			return nil, err
		}
	}
	if opts.WAL {
		w, err = wal.OpenWriter(walSt, wal.Options{PageSize: opts.PageSize, NoSync: opts.NoSync, BufferLimit: opts.walBufLimit})
		if err != nil {
			return nil, err
		}
	}

	pool, err := buffer.NewSized(dev, opts.BufferBytes)
	if err != nil {
		return nil, err
	}
	if w != nil {
		pool.AttachWAL(w)
		// Store creation below mutates pages; bracket it as the first
		// logged operation so even a crash during creation recovers.
		if !existing {
			if _, err := w.Begin("create", uint64(dev.NumPages())); err != nil {
				return nil, err
			}
		}
	}
	var seg *segment.Segment
	if existing {
		seg, err = segment.Open(pool)
	} else {
		seg, err = segment.Create(pool)
	}
	if err != nil {
		return nil, err
	}
	rm := records.New(seg)
	var d *dict.Dict
	if existing {
		d, err = dict.Open(rm)
	} else {
		d, err = dict.Create(rm)
	}
	if err != nil {
		return nil, err
	}
	matrix := core.NewSplitMatrix(opts.DefaultPolicy)
	trees := core.New(rm, core.Config{
		SplitTarget:    opts.SplitTarget,
		SplitTolerance: opts.SplitTolerance,
		Matrix:         matrix,
		CacheRecords:   recordCacheSize,
		MergeOnDelete:  opts.MergeOnDelete,
	})
	var store *docstore.Store
	if existing {
		store, err = docstore.Open(trees, d)
	} else {
		store, err = docstore.Create(trees, d)
	}
	if err != nil {
		return nil, err
	}
	// The path-index store is always attached so deletes and mutations
	// drop stale indexes even in sessions that do not use them; the
	// PathIndex option additionally builds indexes on import and routes
	// queries through them.
	px, err := pathindex.Open(rm)
	if err != nil {
		return nil, err
	}
	if opts.PathIndex {
		store.EnablePathIndex(px)
	} else {
		store.AttachPathIndex(px)
	}
	if w != nil {
		if !existing {
			if err := w.Commit(); err != nil {
				return nil, err
			}
		}
		store.AttachWAL(w)
	}
	// Telemetry: the metrics registry is always on (counters are atomic
	// adds — DB.Stats and DB.Metrics read from it); the tracer exists
	// only when tracing or a slow-op log was requested, so untraced
	// operations pay one atomic load per op.
	reg := telemetry.NewRegistry()
	var tracer *telemetry.Tracer
	if opts.Tracing || opts.SlowOpThreshold > 0 || opts.SlowOpSink != nil {
		tracer = telemetry.NewTracer(telemetry.TracerOptions{
			Enabled:         true,
			BufferSize:      opts.TraceBuffer,
			SlowOpThreshold: opts.SlowOpThreshold,
			SlowOpSink:      opts.SlowOpSink,
		})
	}
	pool.AttachTelemetry(reg)
	if w != nil {
		w.AttachTelemetry(reg)
	}
	trees.AttachTelemetry(reg)
	store.AttachTelemetry(reg, tracer)
	scrubber := integrity.New(integrity.Config{
		Pool:      pool,
		Store:     store,
		WAL:       w,
		RateLimit: opts.ScrubRateLimit,
	})
	scrubber.AttachTelemetry(reg)
	// A store written before record format 5 is upgraded before anything
	// reads a record: the runtime reads that format only.
	if err := store.Upgrade(); err != nil {
		return nil, fmt.Errorf("natix: upgrade to record format %d: %w", noderep.FormatVersion, err)
	}
	db := &DB{opts: opts, dev: dev, sim: sim, pool: pool, store: store,
		matrix: matrix, wal: w, walSt: walSt, reg: reg, tracer: tracer,
		recovery: recovery, scrubber: scrubber}
	if opts.ScrubInterval > 0 {
		db.scrubStop = make(chan struct{})
		db.scrubDone = make(chan struct{})
		go db.scrubLoop(opts.ScrubInterval)
	}
	return db, nil
}

// scrubLoop runs background integrity scrubs until Close. It lives in
// the facade (not the engine) deliberately: the engine's clock
// discipline routes all time through the telemetry package, while the
// facade may own a ticker.
func (db *DB) scrubLoop(interval time.Duration) {
	defer close(db.scrubDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-db.scrubStop:
			return
		case <-t.C:
			// Failures surface through DB.Integrity counters and the
			// next explicit ScrubNow; a background pass has no caller
			// to return an error to.
			_, _ = db.ScrubNow()
		}
	}
}

// stopScrubLoop signals the background scrubber and waits for the
// in-flight pass, if any, to finish.
func (db *DB) stopScrubLoop() {
	db.stopOnce.Do(func() {
		if db.scrubStop != nil {
			close(db.scrubStop)
			<-db.scrubDone
		}
	})
}

// ScrubReport describes one integrity scrub pass: pages verified,
// repairs made in place from the write-ahead log or by recomputation,
// and documents quarantined because their pages could not be healed.
type ScrubReport = integrity.Report

// IntegrityStats are the integrity subsystem's cumulative counters.
type IntegrityStats = integrity.Stats

// ScrubNow runs one full integrity scrub synchronously and returns its
// report. The pass excludes mutations (they queue behind it) but runs
// concurrently with readers; Options.ScrubRateLimit bounds its I/O
// rate. A non-nil error reports a failure of the scrub machinery
// itself — corruption found is not an error, it is the report's
// content.
func (db *DB) ScrubNow() (*ScrubReport, error) {
	return viewE(db, func() (*ScrubReport, error) {
		return db.scrubber.Scrub(context.Background())
	})
}

// Integrity returns the integrity subsystem's cumulative counters:
// scrub passes, pages verified, repairs, quarantines, and transient
// I/O errors absorbed by retry.
func (db *DB) Integrity() (IntegrityStats, error) {
	return viewE(db, func() (IntegrityStats, error) {
		return db.scrubber.Stats(), nil
	})
}

// Quarantined lists the currently quarantined documents and the reason
// each was quarantined. Operations against these fail fast with
// ErrQuarantined; the set empties when their pages are repaired (a
// later scrub lifts the quarantine) or the store is reopened.
func (db *DB) Quarantined() (map[string]string, error) {
	return viewE(db, func() (map[string]string, error) {
		return db.store.QuarantinedDocs(), nil
	})
}

// view runs fn holding the lifecycle lock shared, failing fast with
// ErrClosed on a closed DB — the common prologue of every operation.
// Close takes the lock exclusively, so it waits for in-flight fns.
func (db *DB) view(fn func() error) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	return fn()
}

// viewE is view for operations that return a value. It is a package
// function rather than a method because Go methods cannot introduce
// type parameters.
func viewE[T any](db *DB, fn func() (T, error)) (T, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		var zero T
		return zero, ErrClosed
	}
	return fn()
}

// ReindexDocument rebuilds the path index of a tree-mode document. Use
// it for documents imported before PathIndex was enabled. It fails
// unless the store was opened with PathIndex.
func (db *DB) ReindexDocument(name string) error {
	return db.ReindexDocumentContext(context.Background(), name)
}

// ReindexDocumentContext is ReindexDocument with a cancellation point
// before the rebuild starts; the build itself runs to completion.
func (db *DB) ReindexDocumentContext(ctx context.Context, name string) error {
	return db.view(func() error { return db.store.ReindexDocumentContext(ctx, name) })
}

// SetPolicy records a split-matrix preference for child elements named
// child under parents named parent. It affects subsequent insertions.
func (db *DB) SetPolicy(parent, child string, p Policy) error {
	return db.view(func() error {
		pl, err := db.store.InternLabel(parent)
		if err != nil {
			return err
		}
		cl, err := db.store.InternLabel(child)
		if err != nil {
			return err
		}
		db.matrix.Set(pl, cl, p)
		return nil
	})
}

// SetTextPolicy records the preference for text nodes under parents
// named parent.
func (db *DB) SetTextPolicy(parent string, p Policy) error {
	return db.view(func() error {
		pl, err := db.store.InternLabel(parent)
		if err != nil {
			return err
		}
		db.matrix.Set(pl, dict.Text, p)
		return nil
	})
}

// ImportXML stores an XML document under the given name using the
// native tree representation. The import is a streaming single pass:
// the reader is tokenized incrementally (memory bounded by tree depth,
// not document size), subtrees are packed bottom-up into maximal
// page-sized records each written exactly once, and the path index
// (when enabled) is built in the same pass.
func (db *DB) ImportXML(name string, r io.Reader) error {
	return db.ImportXMLContext(context.Background(), name, r)
}

// ImportXMLContext is ImportXML honoring a context, checked per parse
// event; a cancelled import rolls its partial tree back and leaves the
// store unchanged.
func (db *DB) ImportXMLContext(ctx context.Context, name string, r io.Reader) error {
	return db.view(func() error {
		_, err := db.store.ImportXMLContext(ctx, name, r)
		return err
	})
}

// ImportDoc names one input of ImportXMLBatch.
type ImportDoc = docstore.ImportDoc

// ImportXMLBatch imports several documents in one atomic operation,
// sharded one document per worker across GOMAXPROCS concurrent import
// pipelines. The stored result is byte-identical to importing the
// documents one at a time in input order; any failure rolls the whole
// batch back.
func (db *DB) ImportXMLBatch(ctx context.Context, docs []ImportDoc) error {
	return db.view(func() error {
		_, err := db.store.ImportXMLBatch(ctx, docs, 0)
		return err
	})
}

// ImportXMLFlat stores an XML document as a flat byte stream (the
// baseline representation: fast whole-document access, no structural
// access without re-parsing).
func (db *DB) ImportXMLFlat(name string, r io.Reader) error {
	return db.ImportXMLFlatContext(context.Background(), name, r)
}

// ImportXMLFlatContext is ImportXMLFlat honoring a context, checked
// before the reader is drained and before the blob is written.
func (db *DB) ImportXMLFlatContext(ctx context.Context, name string, r io.Reader) error {
	return db.view(func() error {
		_, err := db.store.ImportFlatContext(ctx, name, r)
		return err
	})
}

// ExportXML serializes the named document to w. A tree-mode document is
// written straight from its records in one pass and reaches w in a few
// large writes; when the export fails part-way (an I/O error, a
// cancelled context), w has received a prefix of the markup.
func (db *DB) ExportXML(name string, w io.Writer) error {
	return db.ExportXMLContext(context.Background(), name, w)
}

// ExportXMLContext is ExportXML honoring a context, checked at the start
// and before the export reads the records behind an element's proxies:
// per record access, not per element.
func (db *DB) ExportXMLContext(ctx context.Context, name string, w io.Writer) error {
	return db.view(func() error { return db.store.ExportXMLContext(ctx, name, w) })
}

// Delete removes the named document.
func (db *DB) Delete(name string) error {
	return db.DeleteContext(context.Background(), name)
}

// DeleteContext is Delete with a cancellation point before the locks
// are taken; a delete that has started runs to completion.
func (db *DB) DeleteContext(ctx context.Context, name string) error {
	return db.view(func() error { return db.store.DeleteContext(ctx, name) })
}

// DocInfo describes a stored document.
type DocInfo struct {
	Name string
	Flat bool
}

// Documents lists stored documents in name order.
func (db *DB) Documents() ([]DocInfo, error) {
	return viewE(db, func() ([]DocInfo, error) {
		var out []DocInfo
		for _, d := range db.store.Documents() {
			out = append(out, DocInfo{Name: d.Name, Flat: d.Mode == docstore.ModeFlat})
		}
		return out, nil
	})
}

// Flush forces all buffered state to the device. With WAL enabled it
// is a full checkpoint: the log is synced, every dirty page written
// and synced, and the log truncated behind a checkpoint record —
// after it returns, no committed operation depends on the log.
// Without WAL it writes the dirty pages.
func (db *DB) Flush() error {
	return db.view(func() error { return db.store.Checkpoint() })
}

// Close flushes and releases the store. With WAL enabled the flush is
// a checkpoint, so a cleanly closed store reopens without recovery
// work and with an empty log. Close takes the lifecycle lock
// exclusively, so it waits for every in-flight operation to finish but a
// cursor's Next, which it stops instead (see Cursor). Operations started
// after Close fail with ErrClosed.
func (db *DB) Close() error {
	db.closing.Store(true)
	// Stop the background scrubber before taking the lifecycle lock
	// exclusively: an in-flight pass holds the lock shared, and closing
	// under it would deadlock against ourselves.
	db.stopScrubLoop()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	err := db.store.Checkpoint()
	if db.walSt != nil {
		if cerr := db.walSt.Close(); err == nil {
			err = cerr
		}
	}
	if derr := db.dev.Close(); err == nil {
		err = derr
	}
	return err
}

// Stats reports storage activity since the store was opened.
type Stats struct {
	// Buffer manager.
	LogicalReads       int64
	BufferHits         int64
	PhysReads          int64
	PhysWrites         int64
	Evictions          int64 // frames reclaimed by the clock sweep
	LatchWaits         int64 // frame-latch acquisitions that had to block
	CoalescedWriteRuns int64 // multi-page vectored writes issued by flushes
	// Tree storage manager.
	Splits           int64
	RecordsCreated   int64
	RecordsDeleted   int64
	RecordsRewritten int64 // in-place record rewrites (zero on the bulk path)
	ParentPatches    int64
	// Space.
	SpaceBytes int64
	PageSize   int
	// Path index.
	PathIndexBuilds int64 // index builds (imports and reindexes)
	IndexedQueries  int64 // tree-mode queries answered from the index
	SummaryQueries  int64 // of those, counted from the path summary or run as one posting scan
	ScanQueries     int64 // tree-mode queries evaluated by navigation
	IndexUnreadable int64 // of those, sent there by a corrupt stored index (reindex to repair)
	// Write-ahead log (all zero when Options.WAL is off).
	WALAppends     int64 // log records appended
	WALBytes       int64 // log payload bytes appended
	WALSyncs       int64 // durability barriers issued (group commit: ~1/mutation)
	WALCheckpoints int64 // checkpoints taken (Flush, Close, log-size-triggered)
}

// Stats returns a snapshot of storage counters. The snapshot is read
// in one pass from the telemetry registry (every subsystem registers
// its counters there), stabilized by re-reading until two sweeps
// agree — so the cross-subsystem view is consistent, not four
// independent reads taken at slightly different times.
func (db *DB) Stats() (Stats, error) {
	return viewE(db, func() (Stats, error) {
		c := db.reg.Snapshot().Counters
		return Stats{
			LogicalReads:       c["buffer.logical_reads"],
			BufferHits:         c["buffer.hits"],
			PhysReads:          c["buffer.phys_reads"],
			PhysWrites:         c["buffer.phys_writes"],
			Evictions:          c["buffer.evictions"],
			LatchWaits:         c["buffer.latch_waits"],
			CoalescedWriteRuns: c["buffer.coalesced_write_runs"],
			Splits:             c["core.splits"],
			RecordsCreated:     c["core.records_created"],
			RecordsDeleted:     c["core.records_deleted"],
			RecordsRewritten:   c["core.records_rewritten"],
			ParentPatches:      c["core.parent_patches"],
			SpaceBytes:         db.store.Trees().Records().Segment().TotalBytes(),
			PageSize:           db.opts.PageSize,
			PathIndexBuilds:    c["docstore.index_builds"],
			IndexedQueries:     c["docstore.queries_indexed"],
			SummaryQueries:     c["docstore.queries_summary"],
			ScanQueries:        c["docstore.queries_scan"],
			IndexUnreadable:    c["docstore.index_unreadable"],
			WALAppends:         c["wal.appends"],
			WALBytes:           c["wal.bytes"],
			WALSyncs:           c["wal.syncs"],
			WALCheckpoints:     c["wal.checkpoints"],
		}, nil
	})
}

// SimStats returns the simulated-disk statistics. It fails unless the
// store was opened with SimulateDisk.
func (db *DB) SimStats() (pagedev.SimStats, error) {
	return viewE(db, func() (pagedev.SimStats, error) {
		if db.sim == nil {
			return pagedev.SimStats{}, fmt.Errorf("%w: store was opened without SimulateDisk", ErrBadOptions)
		}
		return db.sim.Stats(), nil
	})
}
