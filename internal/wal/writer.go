package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"natix/internal/ioretry"
	"natix/internal/pagedev"
	"natix/internal/telemetry"
)

// Options configure a log writer.
type Options struct {
	// PageSize is the database page size, recorded in the log header.
	PageSize int
	// NoSync skips the durability barrier on commit: a returned Commit
	// has put its records in the operating system's page cache, and the
	// operating system decides when they reach the disk. A commit then
	// survives the death of the process, not of the machine; the file
	// can never become corrupt. On a storage that maps the log's tail
	// (OpenMappedFileStorage, Linux) such a commit makes no system call.
	NoSync bool
	// BufferLimit overrides the append-buffer size (0 = 256 KB).
	// Crash tests shrink it so every record append becomes a separate
	// file write — a separate crash point.
	BufferLimit int
}

// Stats counts log activity since the writer was opened.
type Stats struct {
	Appends     int64 // records appended
	Bytes       int64 // payload bytes appended
	Syncs       int64 // durability barriers issued
	Checkpoints int64 // checkpoints taken

	ShiftRecords int64 // shift records among Appends
	ShiftBytes   int64 // their payload bytes among Bytes
}

// Writer is the append side of the log. Appends are buffered in memory
// and reach the file on Flush/Sync — commit is the group-commit point:
// an operation's records travel to the file together and cost one sync.
// All methods are safe for concurrent use (the single mutator appends
// while buffer-pool evictions on reader goroutines call FlushTo).
type Writer struct {
	mu       sync.Mutex
	st       Storage
	opts     Options
	base     LSN   // LSN of the byte at file offset headerSize
	fileEnd  int64 // bytes currently in the file
	buf      []byte
	synced   LSN // log is durable through here (exclusive)
	activeOp uint64
	opSeq    uint64

	appends     int64
	bytes       int64
	syncs       int64
	checkpoints int64
	shiftRecs   int64
	shiftBytes  int64

	// retry absorbs transient storage errors on the append path: a
	// momentary EIO while flushing the buffer retries with backoff
	// instead of aborting the operation.
	retry ioretry.Retryer

	// Telemetry histograms (nil until AttachTelemetry; Observe on nil
	// no-ops). opAppends counts the records of the active operation so
	// endOp can observe the group-commit batch size.
	fsyncNS   *telemetry.Histogram
	batchRecs *telemetry.Histogram
	opAppends int64

	// images maps each page to the LSN of the latest image-bearing
	// record (RecImage or RecFirstUpdate) appended for it this
	// checkpoint epoch — the repair path's index: any page listed here
	// can be reconstructed from the log alone. Cleared at checkpoint,
	// when the log resets and the device becomes the authority.
	images map[pagedev.PageNo]LSN
}

// bufFlushLimit bounds the in-memory append buffer; a bigger buffer is
// written out (without sync) to keep operation memory flat.
const bufFlushLimit = 256 << 10

// OpenWriter attaches a writer to st, creating the log header if the
// storage is empty. Recovery, when needed, must run before the writer
// is opened: the writer appends at the end of the log's valid prefix,
// and cuts off whatever the storage holds behind it.
func OpenWriter(st Storage, opts Options) (*Writer, error) {
	if !pagedev.ValidPageSize(opts.PageSize) {
		return nil, fmt.Errorf("wal: invalid page size %d", opts.PageSize)
	}
	size, err := st.Size()
	if err != nil {
		return nil, err
	}
	w := &Writer{st: st, opts: opts, images: make(map[pagedev.PageNo]LSN)}
	if w.opts.BufferLimit == 0 {
		w.opts.BufferLimit = bufFlushLimit
	}
	if size == 0 {
		w.base = 1
		w.fileEnd = headerSize
		if _, err := st.WriteAt(encodeHeader(header{base: w.base, pageSize: opts.PageSize}), 0); err != nil {
			return nil, err
		}
		// The header must be durable before any record is appended:
		// recovery treats an unreadable header as an empty log.
		if err := st.Sync(); err != nil {
			return nil, err
		}
	} else {
		hb := make([]byte, headerSize)
		if _, err := st.ReadAt(hb, 0); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadHeader, err)
		}
		h, err := decodeHeader(hb)
		if err != nil {
			return nil, err
		}
		if h.pageSize != opts.PageSize {
			return nil, fmt.Errorf("%w: log page size %d, store %d", ErrBadHeader, h.pageSize, opts.PageSize)
		}
		// The log ends where Scan's valid prefix does, not at the file's
		// size: a crash can leave a torn frame, or the zeros of a growth
		// step no commit reached, behind the last record. Appended
		// behind those, a record would be cut off by the next Scan.
		_, end, err := Scan(st, func(r Record) error {
			if r.Type == RecImage || r.Type == RecFirstUpdate {
				w.images[r.Page] = r.LSN
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		w.base = h.base
		w.fileEnd = headerSize + int64(end-h.base)
		if w.fileEnd < size {
			if err := st.Truncate(w.fileEnd); err != nil {
				return nil, err
			}
		}
		if end == h.base && [8]byte(hb[:8]) != logMagic {
			// A header-only log of an older format version: nothing
			// depends on it yet, so reset it to the version this build
			// writes before the first record goes in.
			if _, err := st.WriteAt(encodeHeader(h), 0); err != nil {
				return nil, err
			}
			if err := st.Sync(); err != nil {
				return nil, err
			}
		}
	}
	w.synced = w.endLocked()
	return w, nil
}

// endLocked returns the LSN one past the last appended record.
func (w *Writer) endLocked() LSN {
	return w.base + LSN(w.fileEnd-headerSize) + LSN(len(w.buf))
}

// End returns the LSN the next record will be assigned.
func (w *Writer) End() LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.endLocked()
}

// SyncedLSN returns the end of the durable prefix of the log: every
// record whose LSN (its start) lies below it is durable, and a record at
// exactly SyncedLSN is the first one that is not.
func (w *Writer) SyncedLSN() LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.synced
}

// Size returns the log size in bytes, buffered appends included.
func (w *Writer) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fileEnd + int64(len(w.buf))
}

// Stats returns a snapshot of the writer's counters.
func (w *Writer) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Stats{Appends: w.appends, Bytes: w.bytes, Syncs: w.syncs, Checkpoints: w.checkpoints,
		ShiftRecords: w.shiftRecs, ShiftBytes: w.shiftBytes}
}

// fileWrites returns the system-call writes the storage has made to
// its file since it was opened, growth steps included: a commit's flush
// is one on a plain file, and none on a mapped tail. A log not in a file
// makes none.
func (w *Writer) fileWrites() int64 {
	if f, ok := w.st.(interface{ Writes() int64 }); ok {
		return f.Writes()
	}
	return 0
}

// AttachTelemetry registers the writer's counters with a metrics
// registry and enables the fsync-duration and group-commit batch-size
// histograms. Call before mutation traffic starts.
func (w *Writer) AttachTelemetry(reg *telemetry.Registry) {
	read := func(p *int64) func() int64 {
		return func() int64 {
			w.mu.Lock()
			defer w.mu.Unlock()
			return *p
		}
	}
	reg.Func("wal.appends", read(&w.appends))
	reg.Func("wal.bytes", read(&w.bytes))
	reg.Func("wal.syncs", read(&w.syncs))
	reg.Func("wal.writes", w.fileWrites)
	reg.Func("wal.checkpoints", read(&w.checkpoints))
	reg.Func("wal.shift_records", read(&w.shiftRecs))
	reg.Func("wal.shift_bytes", read(&w.shiftBytes))
	reg.Func("wal.size_bytes", w.Size)
	reg.Func("wal.io_retries", w.retry.Retries)
	w.fsyncNS = reg.Histogram("wal.fsync_ns")
	w.batchRecs = reg.Histogram("wal.commit_batch_records")
}

// IORetries returns the number of transient storage errors the writer
// has absorbed by retrying.
func (w *Writer) IORetries() int64 { return w.retry.Retries() }

// appendLocked frames rec into the buffer and returns its LSN.
func (w *Writer) appendLocked(rec *Record) (LSN, error) {
	lsn := w.endLocked()
	var n int
	w.buf, n = appendFramed(w.buf, rec)
	w.appends++
	w.bytes += int64(n)
	switch rec.Type {
	case RecImage, RecFirstUpdate:
		w.images[rec.Page] = lsn
	case RecShift:
		w.shiftRecs++
		w.shiftBytes += int64(n)
	}
	if len(w.buf) >= w.opts.BufferLimit {
		if err := w.flushLocked(); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// flushLocked writes the buffer to storage without a sync barrier.
func (w *Writer) flushLocked() error {
	if len(w.buf) == 0 {
		return nil
	}
	if err := w.retry.Do(func() error {
		_, err := w.st.WriteAt(w.buf, w.fileEnd)
		return err
	}); err != nil {
		return err
	}
	w.fileEnd += int64(len(w.buf))
	w.buf = w.buf[:0]
	return nil
}

// syncLocked makes every appended record durable.
func (w *Writer) syncLocked() error {
	end := w.endLocked()
	if err := w.flushLocked(); err != nil {
		return err
	}
	if !w.opts.NoSync {
		start := telemetry.Now()
		if err := w.st.Sync(); err != nil {
			return err
		}
		w.fsyncNS.Observe(int64(telemetry.Since(start)))
		w.syncs++
	}
	w.synced = end
	return nil
}

// Sync flushes the buffer and issues a durability barrier.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

// FlushTo ensures the log is durable through the record at lsn. The
// buffer manager calls it before writing back a dirty page (the WAL
// rule).
func (w *Writer) FlushTo(lsn LSN) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.synced > lsn {
		return nil
	}
	return w.syncLocked()
}

// Begin opens an operation: all subsequent updates belong to it until
// Commit or Abort. preNumPages is the device size before the operation;
// undo truncates back to it. Returns the begin record's LSN.
func (w *Writer) Begin(kind string, preNumPages uint64) (LSN, error) {
	return w.BeginOn(kind, "", preNumPages)
}

// BeginOn is Begin for an operation labelled kind+subject — "mutate:"
// and a document's name, say — by a caller that begins one per node edit
// and would rather not build that string each time: the log record is the
// one Begin(kind+subject, ...) writes.
func (w *Writer) BeginOn(kind, subject string, preNumPages uint64) (LSN, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.activeOp != 0 {
		return 0, fmt.Errorf("%w: %q", ErrInOp, kind+subject)
	}
	w.opSeq++
	w.opAppends = w.appends
	rec := Record{Type: RecBegin, OpID: w.opSeq, PreNumPages: preNumPages, Kind: kind, Subject: subject}
	lsn, err := w.appendLocked(&rec)
	if err != nil {
		return 0, err
	}
	w.activeOp = w.opSeq
	return lsn, nil
}

// Commit closes the active operation and makes it durable: the group
// commit point — one sync covers every record the operation appended.
func (w *Writer) Commit() error {
	return w.endOp(RecCommit)
}

// Abort closes the active operation after its effects were rolled back
// (the compensating updates are ordinary logged updates preceding the
// abort record).
func (w *Writer) Abort() error {
	return w.endOp(RecAbort)
}

func (w *Writer) endOp(t uint8) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.activeOp == 0 {
		return ErrNoOp
	}
	rec := Record{Type: t, OpID: w.activeOp}
	if _, err := w.appendLocked(&rec); err != nil {
		return err
	}
	// Group-commit batch size: every record the operation appended
	// (begin + updates + commit/abort) travels under this one sync.
	w.batchRecs.Observe(w.appends - w.opAppends)
	w.activeOp = 0
	return w.syncLocked()
}

// AppendUpdate logs a byte-range change to a page.
func (w *Writer) AppendUpdate(page pagedev.PageNo, ranges []Range) (LSN, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(&Record{Type: RecUpdate, Page: page, Ranges: ranges})
}

// AppendFirstUpdate logs the first post-checkpoint change to an
// existing page: the full before-image plus the changed ranges.
func (w *Writer) AppendFirstUpdate(page pagedev.PageNo, beforeImage []byte, ranges []Range) (LSN, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(&Record{Type: RecFirstUpdate, Page: page, BeforeImage: beforeImage, Ranges: ranges})
}

// AppendShift logs an in-place insert or removal inside a cell of a
// page: the shift and the small ranges that change beside it. The
// caller vouches for the epoch rule — the page's image is already in
// this checkpoint epoch's log — which is what lets replay apply the
// record without looking at the device (see the package comment).
func (w *Writer) AppendShift(page pagedev.PageNo, sh Shift, ranges []Range) (LSN, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(&Record{Type: RecShift, Page: page, Shift: sh, Ranges: ranges})
}

// AppendImage logs the full after-image of a freshly allocated page.
func (w *Writer) AppendImage(page pagedev.PageNo, image []byte) (LSN, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(&Record{Type: RecImage, Page: page, Image: image})
}

// AppendShrink logs a device truncation (runtime rollback deallocating
// the pages an aborted operation grew the device by).
func (w *Writer) AppendShrink(numPages uint64) (LSN, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(&Record{Type: RecShrink, NumPages: numPages})
}

// Checkpoint marks all pages durable and resets the log. The caller
// must have synced the log, flushed every dirty page and synced the
// device, in that order, before calling; no operation may be active.
// The sequence is: checkpoint record (so a crash between here and the
// truncation recovers from the checkpoint, a no-op), then truncation
// with the header's base LSN advanced so LSNs stay monotonic.
func (w *Writer) Checkpoint(numPages uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.activeOp != 0 {
		return fmt.Errorf("wal: checkpoint with operation in progress")
	}
	if _, err := w.appendLocked(&Record{Type: RecCheckpoint, NumPages: numPages}); err != nil {
		return err
	}
	if err := w.syncLocked(); err != nil {
		return err
	}
	newBase := w.endLocked()
	if err := w.st.Truncate(headerSize); err != nil {
		return err
	}
	if _, err := w.st.WriteAt(encodeHeader(header{base: newBase, pageSize: w.opts.PageSize}), 0); err != nil {
		return err
	}
	if !w.opts.NoSync {
		start := telemetry.Now()
		if err := w.st.Sync(); err != nil {
			return err
		}
		w.fsyncNS.Observe(int64(telemetry.Since(start)))
		w.syncs++
	}
	w.base = newBase
	w.fileEnd = headerSize
	w.buf = w.buf[:0]
	w.synced = newBase
	w.checkpoints++
	// The truncated log holds no images: every page is now durable on
	// the device, which becomes the sole authority until the next
	// first-update re-images it.
	clear(w.images)
	return nil
}

// RecordLSNsSince returns the LSNs of every record appended at or after
// from, in log order. Runtime rollback collects these and then reads
// each record back in reverse.
func (w *Writer) RecordLSNsSince(from LSN) ([]LSN, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []LSN
	lsn := from
	end := w.endLocked()
	for lsn < end {
		_, n, err := w.readFrameLocked(lsn)
		if err != nil {
			return nil, err
		}
		out = append(out, lsn)
		lsn += LSN(n)
	}
	return out, nil
}

// ReadRecord reads one record back by LSN, from the file or the append
// buffer. The returned record owns its memory.
func (w *Writer) ReadRecord(lsn LSN) (Record, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	payload, _, err := w.readFrameLocked(lsn)
	if err != nil {
		return Record{}, err
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return Record{}, err
	}
	rec.LSN = lsn
	return rec, nil
}

// readFrameLocked returns the payload (a private copy) and total frame
// length of the record at lsn.
func (w *Writer) readFrameLocked(lsn LSN) (payload []byte, frameLen int, err error) {
	if lsn < w.base {
		return nil, 0, fmt.Errorf("%w: LSN %d before log base %d", ErrBadRecord, lsn, w.base)
	}
	read := func(p []byte, off int64) error {
		fileBytes := w.fileEnd - headerSize
		for len(p) > 0 {
			if off < fileBytes {
				n := int64(len(p))
				if off+n > fileBytes {
					n = fileBytes - off
				}
				if _, err := w.st.ReadAt(p[:n], headerSize+off); err != nil {
					return err
				}
				p = p[n:]
				off += n
			} else {
				boff := off - fileBytes
				if boff >= int64(len(w.buf)) {
					return fmt.Errorf("%w: LSN beyond log end", ErrBadRecord)
				}
				n := copy(p, w.buf[boff:])
				p = p[n:]
				off += int64(n)
			}
		}
		return nil
	}
	off := int64(lsn - w.base)
	var fr [frameSize]byte
	if err := read(fr[:], off); err != nil {
		return nil, 0, err
	}
	n := int(binary.LittleEndian.Uint32(fr[0:]))
	crc := binary.LittleEndian.Uint32(fr[4:])
	if n == 0 || n > maxPayload {
		return nil, 0, ErrBadRecord
	}
	payload = make([]byte, n)
	if err := read(payload, off+frameSize); err != nil {
		return nil, 0, err
	}
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, 0, ErrBadRecord
	}
	return payload, frameSize + n, nil
}
