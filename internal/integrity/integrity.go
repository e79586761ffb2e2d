// Package integrity implements the storage scrubber: proactive
// detection of silent page corruption, in-place repair from the
// write-ahead log, and document-granularity quarantine of whatever
// cannot be healed.
//
// # What a scrub does
//
// A scrub sweeps every allocated page of the segment and verifies the
// device copy: CRC, page type against the page's role (header,
// free-space inventory, data), and the cross-structure invariants —
// the inventory never overstates a page's free space, every catalog
// root resolves to a live record, every path-index posting blob is
// readable, and every tree document's record graph passes the tree
// manager's invariant check (core.Tree.CheckInvariants: record sizes,
// parent pointers, proxy counts), which a checksum cannot vouch for. Pages resident in the buffer pool are skipped: their frame
// is the authoritative copy (the device bytes may be legitimately
// stale), and skipping them is also what keeps the scrubber from ever
// contending on a frame latch with foreground work.
//
// # The repair ladder
//
// A page that fails verification is repaired from the best available
// source, in order:
//
//  1. the write-ahead log — any page with an image-bearing record in
//     the current checkpoint epoch is rebuilt byte-for-byte
//     (wal.ReconstructPage) and re-stamped in place;
//  2. the header snapshot — the docstore re-captures page 0 at every
//     checkpoint, and the absence of a page-0 log image proves the
//     header unchanged since, so the snapshot restores it exactly;
//  3. recomputation — free-space-inventory pages are fully derivable
//     from the slot directories of the pages they cover
//     (segment.RebuildFSIPage), so they never quarantine anything;
//  4. quarantine — a data page with no image source damages exactly
//     the documents whose record graphs touch it: those are
//     quarantined in the docstore (operations fail fast with
//     ErrQuarantined) while every other document keeps serving. Every
//     unrepaired page is also fenced out of the allocator, so a
//     healthy document's next insert never lands on known-bad bytes.
//
// The scrub runs under the docstore's writer mutex, so no examined
// page has an update in flight; readers proceed untouched. The
// pages-per-second rate limit bounds scrub I/O on an idle store.
package integrity

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"natix/internal/buffer"
	"natix/internal/docstore"
	"natix/internal/ioretry"
	"natix/internal/pagedev"
	"natix/internal/pageformat"
	"natix/internal/telemetry"
	"natix/internal/wal"
)

// Config assembles the subsystems a scrubber operates on.
type Config struct {
	Pool  *buffer.Pool
	Store *docstore.Store
	WAL   *wal.Writer // nil when logging is off: repair source 1 unavailable

	// RateLimit bounds the sweep at pages per second (0 = unlimited).
	RateLimit int
}

// Report describes one scrub pass.
type Report struct {
	PagesChecked  int64 // pages verified against the device
	PagesResident int64 // pages skipped because their frame is authoritative
	CorruptFound  int64 // pages that failed verification
	FSIFixed      int64 // inventory entries corrected (overstated free space)
	BadRIDs       int64 // catalog/index references that no longer resolve
	BadGraphs     int64 // tree documents whose record graph fails the invariant check

	Repaired    []pagedev.PageNo  // rebuilt in place (WAL image or FSI recompute)
	Unrepaired  []pagedev.PageNo  // no repair source; owners quarantined
	Fenced      []pagedev.PageNo  // unrepaired pages owned by no document
	Quarantined map[string]string // document -> reason

	Duration time.Duration
}

// Clean reports a store with nothing wrong: no corruption found and
// nothing previously quarantined still is.
func (r *Report) Clean() bool {
	return r.CorruptFound == 0 && r.BadRIDs == 0 && r.BadGraphs == 0 && len(r.Quarantined) == 0
}

// Stats are the scrubber's cumulative counters (across all passes).
type Stats struct {
	Scrubs        int64
	PagesVerified int64
	Repairs       int64
	Quarantines   int64
	IORetries     int64
}

// Scrubber verifies and repairs a store's pages. Safe for concurrent
// use; passes serialize on the docstore writer mutex.
type Scrubber struct {
	cfg Config
	mu  sync.Mutex // serializes Scrub bookkeeping

	scrubs        atomic.Int64
	pagesVerified atomic.Int64
	repairs       atomic.Int64
	quarantines   atomic.Int64

	// retry absorbs transient device errors on the scrubber's own
	// direct reads (foreground I/O goes through the pool's retryer).
	retry ioretry.Retryer
}

// New creates a scrubber over cfg.
func New(cfg Config) *Scrubber {
	return &Scrubber{cfg: cfg}
}

// Stats returns the cumulative counters. IORetries aggregates every
// retry site in the engine: the buffer pool, the log writer, and the
// scrubber's own device reads.
func (s *Scrubber) Stats() Stats {
	st := Stats{
		Scrubs:        s.scrubs.Load(),
		PagesVerified: s.pagesVerified.Load(),
		Repairs:       s.repairs.Load(),
		Quarantines:   s.quarantines.Load(),
		IORetries:     s.cfg.Pool.IORetries() + s.retry.Retries(),
	}
	if s.cfg.WAL != nil {
		st.IORetries += s.cfg.WAL.IORetries()
	}
	return st
}

// AttachTelemetry registers the scrubber's counters with a metrics
// registry.
func (s *Scrubber) AttachTelemetry(reg *telemetry.Registry) {
	reg.Func("integrity.scrubs", s.scrubs.Load)
	reg.Func("integrity.pages_verified", s.pagesVerified.Load)
	reg.Func("integrity.repairs", s.repairs.Load)
	reg.Func("integrity.quarantines", s.quarantines.Load)
	reg.Func("integrity.io_retries", func() int64 { return s.Stats().IORetries })
}

// Scrub runs one full pass: sweep, repair, attribute, quarantine. It
// returns a Report even when err is non-nil (err reflects an I/O or
// walk failure that ended the pass early, not corruption — corruption
// is the report's job). The pass holds the docstore writer mutex, so
// mutators wait; size the rate limit accordingly.
func (s *Scrubber) Scrub(ctx context.Context) (*Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := &Report{Quarantined: make(map[string]string)}
	start := telemetry.Now()
	err := s.cfg.Store.ExclusiveMaintenance(func() error {
		return s.scrubLocked(ctx, rep)
	})
	rep.Duration = telemetry.Since(start)
	s.scrubs.Add(1)
	return rep, err
}

// pacer bounds the sweep rate: after every chunk of pages it sleeps
// long enough to hold the configured pages-per-second average.
type pacer struct {
	interval time.Duration // per-page budget
	pending  int
}

const pacerChunk = 32

func newPacer(rate int) *pacer {
	if rate <= 0 {
		return nil
	}
	return &pacer{interval: time.Second / time.Duration(rate)}
}

func (p *pacer) tick() {
	if p == nil {
		return
	}
	p.pending++
	if p.pending >= pacerChunk {
		telemetry.Sleep(time.Duration(p.pending) * p.interval)
		p.pending = 0
	}
}

// sweepWindow serves a sweep's page reads from a sliding read-ahead
// window: when the sweep asks for a page outside the window, the
// window advances and fetches every contiguous run of wanted,
// non-resident pages inside it with one vectored pagedev.ReadRange
// (through the scrubber's ioretry policy). The reads deliberately
// bypass the buffer pool: a page loaded into it becomes resident, and
// the sweep skips resident pages — reading ahead through the pool
// would collapse the scrub's own coverage. Device-level batching gives
// sequential I/O without touching the frame table.
//
// A failed vectored read is not an error: the affected pages fall back
// to individual reads at consumption time, so a single unreadable page
// surfaces exactly the per-page error the unbatched sweep produced.
type sweepWindow struct {
	s        *Scrubber
	dev      pagedev.Device
	pageSize int
	want     func(pagedev.PageNo) bool // pages this sweep pass verifies

	base pagedev.PageNo // first page covered by the window
	n    int            // pages covered (0 until the first fill)
	have []bool         // per-slot: filled by a successful batch read
	buf  []byte
}

// sweepWindowPages matches the pacer chunk, so one window fill is one
// rate-limited burst of device work.
const sweepWindowPages = pacerChunk

func newSweepWindow(s *Scrubber, dev pagedev.Device, pageSize int, want func(pagedev.PageNo) bool) *sweepWindow {
	return &sweepWindow{
		s:        s,
		dev:      dev,
		pageSize: pageSize,
		want:     want,
		have:     make([]bool, sweepWindowPages),
		buf:      make([]byte, sweepWindowPages*pageSize),
	}
}

// page returns the device image of p, valid until the next page call
// that advances the window.
func (w *sweepWindow) page(ctx context.Context, p pagedev.PageNo) ([]byte, error) {
	if w.n == 0 || p < w.base || p >= w.base+pagedev.PageNo(w.n) {
		w.fill(ctx, p)
	}
	idx := int(p - w.base)
	b := w.buf[idx*w.pageSize : (idx+1)*w.pageSize]
	if !w.have[idx] {
		// Not covered by a batch read (resident at fill time, filtered
		// out, or the vectored read failed): read it individually.
		if err := w.s.retry.DoCtx(ctx, func() error { return w.dev.Read(p, b) }); err != nil {
			return nil, err
		}
		w.have[idx] = true
	}
	return b, nil
}

// fill advances the window to start at p and batch-reads the contiguous
// runs of wanted, non-resident pages it covers. Read failures are left
// for page to retry individually.
func (w *sweepWindow) fill(ctx context.Context, p pagedev.PageNo) {
	n := sweepWindowPages
	if rest := w.dev.NumPages() - p; pagedev.PageNo(n) > rest {
		n = int(rest)
	}
	w.base, w.n = p, n
	for i := range w.have {
		w.have[i] = false
	}
	for i := 0; i < n; {
		pn := p + pagedev.PageNo(i)
		if !w.want(pn) || w.s.cfg.Pool.Resident(pn) {
			i++
			continue
		}
		j := i + 1
		for j < n {
			pj := p + pagedev.PageNo(j)
			if !w.want(pj) || w.s.cfg.Pool.Resident(pj) {
				break
			}
			j++
		}
		b := w.buf[i*w.pageSize : j*w.pageSize]
		start := pn
		if err := w.s.retry.DoCtx(ctx, func() error { return pagedev.ReadRange(w.dev, start, b) }); err == nil {
			for k := i; k < j; k++ {
				w.have[k] = true
			}
		}
		i = j
	}
}

func (s *Scrubber) scrubLocked(ctx context.Context, rep *Report) error {
	dev := s.cfg.Pool.Device()
	seg := s.cfg.Store.Trees().Records().Segment()
	pageSize := dev.PageSize()
	numPages := dev.NumPages()
	pace := newPacer(s.cfg.RateLimit)

	var corrupt []pagedev.PageNo

	// Pass 1: the segment header and every FSI page, so that pass 2 can
	// trust free-space hints when judging data pages. Then the data
	// pages themselves. Each pass pulls its device reads through a
	// sliding read-ahead window (sweepWindow): contiguous runs of
	// pages the pass will verify are fetched with single vectored
	// reads, so sweeping a large store is a few sequential transfers
	// per pacer chunk instead of one random read per page.
	sweep := func(wantFSI bool) error {
		win := newSweepWindow(s, dev, pageSize, func(p pagedev.PageNo) bool {
			return (p == 0 || seg.IsFSIPage(p)) == wantFSI
		})
		for p := pagedev.PageNo(0); p < numPages; p++ {
			isFSI := p == 0 || seg.IsFSIPage(p)
			if isFSI != wantFSI {
				continue
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			pace.tick()
			if s.cfg.Pool.Resident(p) {
				rep.PagesResident++
				s.pagesVerified.Add(1)
				continue
			}
			rep.PagesChecked++
			s.pagesVerified.Add(1)
			buf, err := win.page(ctx, p)
			if err != nil {
				return fmt.Errorf("integrity: read page %d: %w", p, err)
			}
			if s.verifyPage(seg, p, buf) {
				continue
			}
			rep.CorruptFound++
			repaired, err := s.repair(seg, p, pageSize)
			if err != nil {
				return err
			}
			if repaired {
				s.repairs.Add(1)
				rep.Repaired = append(rep.Repaired, p)
			} else {
				rep.Unrepaired = append(rep.Unrepaired, p)
				corrupt = append(corrupt, p)
			}
		}
		return nil
	}
	if err := sweep(true); err != nil {
		return err
	}
	if err := sweep(false); err != nil {
		return err
	}

	// Cross-structure pass: every catalog root and path-index blob must
	// resolve to live records. A document whose references are broken
	// is as damaged as one sitting on a corrupt page.
	broken := s.checkReferences(rep)

	// Attribution: map unrepaired pages to the documents whose graphs
	// touch them, quarantine those, fence orphan pages out of the
	// allocator. Documents clean this pass leave quarantine.
	if err := s.attribute(seg, rep, corrupt, broken); err != nil {
		return err
	}
	return nil
}

// verifyPage checks one non-resident device page image: CRC plus the
// page type its location demands. A data page reading as TypeInvalid
// (bad magic) passes only when the inventory records it completely
// empty — a formatted-but-never-flushed page — because a corrupted
// magic makes every other header field, CRC included, unverifiable.
func (s *Scrubber) verifyPage(seg segmentIface, p pagedev.PageNo, buf []byte) bool {
	if err := pageformat.VerifyChecksum(buf); err != nil {
		return false
	}
	t := pageformat.TypeOf(buf)
	switch {
	case p == 0:
		return t == pageformat.TypeHeader
	case seg.IsFSIPage(p):
		return t == pageformat.TypeFSI
	default:
		if t == pageformat.TypeSlotted || t == pageformat.TypePlain {
			return true
		}
		if t != pageformat.TypeInvalid {
			return false
		}
		free, err := seg.FreeHint(p)
		return err == nil && free >= seg.MaxRecordSize()+pageformat.SlotOverhead
	}
}

// segmentIface is the slice of *segment.Segment the scrubber uses —
// narrow so tests can fake it.
type segmentIface interface {
	IsFSIPage(p pagedev.PageNo) bool
	IsDataPage(p pagedev.PageNo) bool
	FreeHint(p pagedev.PageNo) (int, error)
	MaxRecordSize() int
	RebuildFSIPage(p pagedev.PageNo) error
	NotifyFree(p pagedev.PageNo, freeBytes int) error
}

// repair tries the repair ladder on page p, reporting whether the page
// was rebuilt. An error means the repair machinery itself failed (a
// device write error), not that the page is unrepairable.
func (s *Scrubber) repair(seg segmentIface, p pagedev.PageNo, pageSize int) (bool, error) {
	// 1. The log: byte-exact reconstruction when an image exists.
	if s.cfg.WAL != nil {
		img, ok, err := s.cfg.WAL.ReconstructPage(p, pageSize)
		if err == nil && ok {
			if err := s.cfg.Pool.Restore(p, img); err != nil {
				return false, fmt.Errorf("integrity: restore page %d: %w", p, err)
			}
			return true, nil
		}
	}
	// 2. The header snapshot: the docstore keeps a copy of page 0 from
	// the last checkpoint. No page-0 image in the log (step 1 missed)
	// means the header has not changed since then — any change would
	// have logged a first-update image — so the snapshot is current.
	if p == 0 && s.cfg.WAL != nil {
		if hc := s.cfg.Store.HeaderSnapshot(); len(hc) == pageSize {
			if err := s.cfg.Pool.Restore(0, hc); err != nil {
				return false, fmt.Errorf("integrity: restore header page: %w", err)
			}
			return true, nil
		}
	}
	// 3. Recomputation: inventory pages are derivable from the pages
	// they cover.
	if p != 0 && seg.IsFSIPage(p) {
		if err := seg.RebuildFSIPage(p); err != nil {
			return false, fmt.Errorf("integrity: rebuild FSI page %d: %w", p, err)
		}
		return true, nil
	}
	return false, nil
}

// checkReferences verifies that every catalog root and every
// path-index blob resolves, and that every tree document's record graph
// passes the invariant check, returning the set of documents with broken
// references or graphs.
func (s *Scrubber) checkReferences(rep *Report) map[string]string {
	broken := make(map[string]string)
	st := s.cfg.Store
	rm := st.Trees().Records()
	for _, info := range st.Documents() {
		if err := rm.VerifyRID(info.Root); err != nil {
			rep.BadRIDs++
			broken[info.Name] = fmt.Sprintf("catalog root %s: %v", info.Root, err)
			continue
		}
		if info.Mode == docstore.ModeTree {
			if err := st.Trees().OpenTree(info.Root).CheckInvariants(); err != nil {
				rep.BadGraphs++
				broken[info.Name] = fmt.Sprintf("record graph: %v", err)
				continue
			}
		}
		if px := st.PathIndex(); px != nil {
			rids, err := px.BlobRIDs(info.Name)
			if err != nil {
				rep.BadRIDs++
				broken[info.Name] = fmt.Sprintf("path index: %v", err)
				continue
			}
			for _, rid := range rids {
				if err := rm.VerifyRID(rid); err != nil {
					rep.BadRIDs++
					broken[info.Name] = fmt.Sprintf("path index blob %s: %v", rid, err)
					break
				}
			}
		}
	}
	return broken
}

// attribute maps unrepaired corrupt pages to their owning documents,
// quarantines those (and documents with broken references), fences
// orphan corrupt pages, and lifts quarantine from documents that came
// through this pass clean.
func (s *Scrubber) attribute(seg segmentIface, rep *Report, corrupt []pagedev.PageNo, broken map[string]string) error {
	st := s.cfg.Store
	implicated := broken // name -> reason

	if len(corrupt) > 0 {
		corruptSet := make(map[pagedev.PageNo]bool, len(corrupt))
		for _, p := range corrupt {
			corruptSet[p] = true
		}
		owned := make(map[pagedev.PageNo]bool, len(corrupt))
		for _, info := range st.Documents() {
			// Documents already implicated by a broken reference are
			// still walked: the pages their intact prefix reaches must
			// count as owned, not as fenceable dead space.
			_, done := implicated[info.Name]
			pages, err := st.PageOwners(info.Name)
			hit := false
			for _, p := range pages {
				if corruptSet[p] {
					owned[p] = true
					if !hit {
						hit = true
						if !done {
							implicated[info.Name] = fmt.Sprintf("corrupt page %d (no log image)", p)
						}
					}
				}
			}
			if err != nil && !hit && !done {
				// The walk broke before completing: the document
				// touches damage we could not enumerate past.
				implicated[info.Name] = fmt.Sprintf("record walk failed: %v", err)
			}
		}
		// Fence every unrepaired data page from the allocator — a healthy
		// document's next insert must not land on known-bad bytes. The
		// zeroed hint is an unbracketed log write; recovery replays it as
		// finished, and losing it merely re-fences on the next scrub.
		// Pages no document owns are additionally reported as dead space.
		for _, p := range corrupt {
			if p == 0 || !seg.IsDataPage(p) {
				continue
			}
			if err := seg.NotifyFree(p, 0); err == nil && !owned[p] {
				rep.Fenced = append(rep.Fenced, p)
			}
		}
		// A corrupt segment header (page 0) with no log image poisons
		// everything: every root pointer is suspect.
		for _, p := range corrupt {
			if p == 0 {
				for _, info := range st.Documents() {
					if _, done := implicated[info.Name]; !done {
						implicated[info.Name] = "segment header corrupt"
					}
				}
			}
		}
	}

	for name, reason := range implicated {
		if _, already := st.Quarantined(name); !already {
			s.quarantines.Add(1)
		}
		st.Quarantine(name, reason)
		rep.Quarantined[name] = reason
	}
	// Documents that came through clean leave quarantine: the repair
	// path (or a reopen that preceded this scrub) healed them.
	for name := range st.QuarantinedDocs() {
		if _, still := implicated[name]; !still {
			st.Unquarantine(name)
		}
	}
	sort.Slice(rep.Repaired, func(i, j int) bool { return rep.Repaired[i] < rep.Repaired[j] })
	sort.Slice(rep.Unrepaired, func(i, j int) bool { return rep.Unrepaired[i] < rep.Unrepaired[j] })
	return nil
}
