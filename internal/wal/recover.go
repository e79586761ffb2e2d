package wal

import (
	"errors"
	"fmt"
	"sort"

	"natix/internal/pagedev"
	"natix/internal/pageformat"
)

// Result describes what restart recovery did.
type Result struct {
	// Recovered is true when the log held records — the store was not
	// cleanly closed and redo/undo ran.
	Recovered bool
	// RedoneOps counts finished operations replayed.
	RedoneOps int
	// UndoneOps counts unfinished tail operations rolled back.
	UndoneOps int
	// PagesWritten counts device pages recovery rewrote.
	PagesWritten int
	// Reset is true when the log header was unreadable and the log was
	// discarded (only possible before any record was durable).
	Reset bool
}

// ErrUnrecoverable reports a log/device state recovery cannot repair —
// a torn page with no full image in the log to rebuild it from. It
// cannot arise from crashes under the WAL rule (first post-checkpoint
// updates log full before-images); it means the store file was damaged
// by something other than a crash.
var ErrUnrecoverable = errors.New("wal: unrecoverable: torn page without logged image")

// recPage is one page being reconstructed during recovery.
type recPage struct {
	buf    []byte
	dirty  bool
	torn   bool // device copy failed its checksum
	imaged bool // a full image/before-image has been laid down: replay no longer rests on device bytes
	dead   bool // freshly allocated by an undone operation
	lsn    LSN  // last record applied
}

// Recover replays the log in st against dev: redo for every finished
// operation since the last checkpoint, undo for the unfinished tail
// operation if the crash interrupted one. On return the device contains
// exactly the committed operations, durably, and the log is reset. An
// empty log returns a zero Result. Recovery is idempotent: if it is
// itself interrupted, the next run starts from the same log and
// reaches the same state.
func Recover(dev pagedev.Device, st Storage) (Result, error) {
	size, err := st.Size()
	if err != nil {
		return Result{}, err
	}
	if size == 0 {
		return Result{}, nil
	}

	var recs []Record
	pageSize, end, err := Scan(st, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if errors.Is(err, ErrBadHeader) {
		// The header is synced before the first record is appended, so
		// an unreadable header means no durable record ever depended on
		// this log. Discard it.
		if terr := st.Truncate(0); terr != nil {
			return Result{}, terr
		}
		return Result{Reset: true}, nil
	}
	if err != nil {
		return Result{}, err
	}
	if pageSize != dev.PageSize() {
		return Result{}, fmt.Errorf("%w: log page size %d, device %d", ErrBadHeader, pageSize, dev.PageSize())
	}

	if len(recs) == 0 {
		// Header-only log: the store was cleanly closed.
		return Result{}, nil
	}

	// Start after the last checkpoint: everything before it is durable
	// in the device already.
	start := 0
	for i, r := range recs {
		if r.Type == RecCheckpoint {
			start = i + 1
		}
	}
	recs = recs[start:]

	res := Result{Recovered: true}
	if len(recs) == 0 {
		return res, resetLog(st, pageSize, end)
	}

	// Analysis: which operations finished?
	closed := make(map[uint64]bool)
	for _, r := range recs {
		switch r.Type {
		case RecCommit, RecAbort:
			closed[r.OpID] = true
		}
	}

	pages := make(map[pagedev.PageNo]*recPage)
	virtual := uint64(dev.NumPages()) // device size being reconstructed
	load := func(p pagedev.PageNo) *recPage {
		if pg, ok := pages[p]; ok {
			return pg
		}
		pg := &recPage{buf: make([]byte, pageSize)}
		if uint64(p) < uint64(dev.NumPages()) {
			if err := dev.Read(p, pg.buf); err != nil {
				pg.torn = true
			} else if err := pageformat.VerifyChecksum(pg.buf); err != nil {
				pg.torn = true
			}
		}
		pages[p] = pg
		return pg
	}
	grow := func(p pagedev.PageNo) {
		if uint64(p)+1 > virtual {
			virtual = uint64(p) + 1
		}
	}
	// Op membership per record: page records carry no op id; the
	// nearest preceding begin owns them.
	owner := make([]uint64, len(recs))
	currentOwner := uint64(0)
	for i, r := range recs {
		if r.Type == RecBegin {
			currentOwner = r.OpID
		}
		owner[i] = currentOwner
		if r.Type == RecCommit || r.Type == RecAbort {
			currentOwner = 0
		}
	}
	// Records before any begin were subject to the WAL rule like all
	// others; replay them as finished.
	finished := func(i int) bool { return owner[i] == 0 || closed[owner[i]] }

	// Read-ahead: the replay below touches pages in record order, which
	// is effectively random on the device. Walk the records first to
	// learn, per page, whether its first touch needs the device copy at
	// all — RecImage and RecFirstUpdate overwrite the whole page, a
	// RecShift is refused without one of them before it, only RecUpdate
	// patches on top of device bytes — then load the needed pages in
	// ascending page order, adjacent runs batched into single vectored
	// reads. On the simulated disk that is one seek plus sequential
	// transfers instead of one seek per page; load() then always hits
	// the pages map.
	needDevice := make(map[pagedev.PageNo]bool) // every page touched → its first touch patches device bytes
	for i := range recs {
		switch r := &recs[i]; r.Type {
		case RecImage, RecFirstUpdate, RecShift, RecUpdate:
			if _, seen := needDevice[r.Page]; !seen {
				needDevice[r.Page] = r.Type == RecUpdate
			}
		}
	}
	preload(dev, pages, needDevice, pageSize)

	// Redo repeats history: every page record since the checkpoint in
	// log order, those of the unfinished tail operation included, so
	// that each record — and then each undo below — meets the page in
	// exactly the state it was logged against. (Records of aborted
	// operations replay too: their compensating updates follow their
	// originals in the log, so the net effect is the rollback the
	// mutator performed before appending the abort.)
	for i := range recs {
		r := &recs[i]
		switch r.Type {
		case RecBegin:
			if closed[r.OpID] {
				res.RedoneOps++
			}
		case RecImage, RecFirstUpdate, RecUpdate, RecShift:
			grow(r.Page)
			pg := load(r.Page)
			if r.Type == RecShift && !pg.imaged {
				// The epoch rule: a shift never applies to device bytes.
				return res, fmt.Errorf("%w: shift for page %d with no earlier image of it in the log", ErrBadRecord, r.Page)
			}
			if err := r.Redo(pg.buf); err != nil {
				return res, fmt.Errorf("wal: redo page %d at LSN %d: %w", r.Page, r.LSN, err)
			}
			pg.dirty, pg.lsn = true, r.LSN
			switch r.Type {
			case RecImage:
				pg.imaged, pg.torn, pg.dead = true, false, false
			case RecFirstUpdate:
				pg.imaged, pg.torn = true, false
			}
		case RecShrink:
			if r.NumPages < virtual {
				virtual = r.NumPages
			}
			for p, pg := range pages {
				if uint64(p) >= r.NumPages {
					pg.dead, pg.dirty = true, false
				}
			}
		}
	}

	// Undo: walk the unfinished tail operation's records backwards,
	// taking each back out of its page; pages it freshly allocated die
	// with the device truncation back to the operation's pre-image size.
	undone := make(map[uint64]bool)
	undoShrink := virtual
	for i := len(recs) - 1; i >= 0; i-- {
		r := &recs[i]
		if r.Type == RecBegin && !closed[r.OpID] {
			undone[r.OpID] = true
			if r.PreNumPages < undoShrink {
				undoShrink = r.PreNumPages
			}
		}
		if finished(i) {
			continue
		}
		switch r.Type {
		case RecImage:
			pg := load(r.Page)
			pg.dead, pg.dirty = true, false
		case RecFirstUpdate, RecUpdate, RecShift:
			pg := load(r.Page)
			if err := r.Undo(pg.buf); err != nil {
				return res, fmt.Errorf("wal: undo page %d at LSN %d: %w", r.Page, r.LSN, err)
			}
			pg.dirty, pg.lsn = true, r.LSN
		}
	}
	res.UndoneOps = len(undone)
	if undoShrink < virtual {
		virtual = undoShrink
	}

	// Write the reconstructed pages, checksummed and LSN-stamped, in
	// ascending page order with adjacent runs coalesced into vectored
	// writes — recovery after a crashed bulk load rewrites long
	// contiguous stretches, and elevator order plus pagedev.WriteRange
	// turns those into sequential transfers.
	if pagedev.PageNo(virtual) > dev.NumPages() {
		if err := dev.Grow(pagedev.PageNo(virtual)); err != nil {
			return res, err
		}
	}
	order := make([]pagedev.PageNo, 0, len(pages))
	for p, pg := range pages {
		if pg.dead || !pg.dirty || uint64(p) >= virtual {
			continue
		}
		if pg.torn && !pg.imaged {
			return res, fmt.Errorf("%w: page %d", ErrUnrecoverable, p)
		}
		if pageformat.TypeOf(pg.buf) != pageformat.TypeInvalid {
			pageformat.SetPageLSN(pg.buf, uint64(pg.lsn))
			pageformat.UpdateChecksum(pg.buf)
		}
		order = append(order, p)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	var runBuf []byte
	for i := 0; i < len(order); {
		j := i + 1
		for j < len(order) && j-i < maxRecoveryRun && order[j] == order[j-1]+1 {
			j++
		}
		run := order[i:j]
		i = j
		if len(run) == 1 {
			if err := dev.Write(run[0], pages[run[0]].buf); err != nil {
				return res, err
			}
			res.PagesWritten++
			continue
		}
		if runBuf == nil {
			runBuf = make([]byte, maxRecoveryRun*pageSize)
		}
		for k, p := range run {
			copy(runBuf[k*pageSize:], pages[p].buf)
		}
		if err := pagedev.WriteRange(dev, run[0], runBuf[:len(run)*pageSize]); err != nil {
			return res, err
		}
		res.PagesWritten += len(run)
	}
	if dev.NumPages() > pagedev.PageNo(virtual) {
		if err := dev.Shrink(pagedev.PageNo(virtual)); err != nil {
			return res, err
		}
	}
	if err := dev.Sync(); err != nil {
		return res, err
	}
	return res, resetLog(st, pageSize, end)
}

// maxRecoveryRun caps the pages moved per vectored recovery I/O.
const maxRecoveryRun = 64

// preload populates pages for every page the replay will touch — the
// keys of needDevice: pages whose first touch overwrites them fully get
// a blank entry (no device read at all), pages whose first touch patches
// byte ranges (needDevice true) get their device copy, fetched in ascending order with adjacent runs batched
// through pagedev.ReadRange. A failed vectored read falls back to
// per-page loads so a single unreadable page only marks itself torn,
// exactly as the unbatched path would.
func preload(dev pagedev.Device, pages map[pagedev.PageNo]*recPage, needDevice map[pagedev.PageNo]bool, pageSize int) {
	blank := func(p pagedev.PageNo) {
		pages[p] = &recPage{buf: make([]byte, pageSize)}
	}
	loadOne := func(p pagedev.PageNo) {
		pg := &recPage{buf: make([]byte, pageSize)}
		if err := dev.Read(p, pg.buf); err != nil {
			pg.torn = true
		} else if err := pageformat.VerifyChecksum(pg.buf); err != nil {
			pg.torn = true
		}
		pages[p] = pg
	}
	numPages := uint64(dev.NumPages())
	need := make([]pagedev.PageNo, 0, len(needDevice))
	for p, wanted := range needDevice {
		if !wanted || uint64(p) >= numPages {
			blank(p)
			continue
		}
		need = append(need, p)
	}
	sort.Slice(need, func(i, j int) bool { return need[i] < need[j] })
	var runBuf []byte
	for i := 0; i < len(need); {
		j := i + 1
		for j < len(need) && j-i < maxRecoveryRun && need[j] == need[j-1]+1 {
			j++
		}
		run := need[i:j]
		i = j
		if len(run) == 1 {
			loadOne(run[0])
			continue
		}
		if runBuf == nil {
			runBuf = make([]byte, maxRecoveryRun*pageSize)
		}
		b := runBuf[:len(run)*pageSize]
		if err := pagedev.ReadRange(dev, run[0], b); err != nil {
			for _, p := range run {
				loadOne(p)
			}
			continue
		}
		for k, p := range run {
			pg := &recPage{buf: make([]byte, pageSize)}
			copy(pg.buf, b[k*pageSize:])
			if err := pageformat.VerifyChecksum(pg.buf); err != nil {
				pg.torn = true
			}
			pages[p] = pg
		}
	}
}

// resetLog truncates the log to an empty state whose base LSN is end,
// the LSN after everything scanned, keeping LSNs monotonic for the
// store's life.
func resetLog(st Storage, pageSize int, end LSN) error {
	if end == 0 {
		end = 1
	}
	if err := st.Truncate(headerSize); err != nil {
		return err
	}
	if _, err := st.WriteAt(encodeHeader(header{base: end, pageSize: pageSize}), 0); err != nil {
		return err
	}
	return st.Sync()
}
