package docstore

// Write-ahead-log integration: operation boundaries and log-driven
// rollback.
//
// Every mutator funnels through Mutate (or InternLabel's slow path),
// so bracketing those two entry points with begin/commit log records
// makes each public operation — ImportXML, Delete, Convert,
// ReindexDocument, a Document edit inside Mutate — atomic across
// crashes: restart recovery replays finished operations and unwinds
// the unfinished one.
//
// A mutator that fails at runtime is rolled back from the log, too:
// the operation's records are walked backwards and each one undone
// through the buffer pool (each restoration is itself a
// logged update, so the log stays the complete history), the device is
// truncated back to its pre-operation size, and an abort record closes
// the operation. Because the rollback is physical, the in-memory
// mirrors of rolled-back pages — catalog map, dictionary snapshot,
// path-index catalog, record cache — are reloaded from the
// restored pages afterwards.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"natix/internal/pagedev"
	"natix/internal/records"
	"natix/internal/segment"
	"natix/internal/telemetry"
	"natix/internal/wal"
)

// checkpointLogSize is the log size that triggers an automatic
// checkpoint after a commit, bounding both log growth and restart
// recovery work.
const checkpointLogSize = 8 << 20

// AttachWAL connects the write-ahead log. The caller must also attach
// the same writer to the buffer pool; from then on every Mutate runs
// as a logged operation.
func (s *Store) AttachWAL(w *wal.Writer) {
	s.walW = w
	s.captureHeader()
}

// captureHeader refreshes the last-known-good copy of the segment
// header page. Best effort: an unreadable header simply leaves the
// previous copy (or none), and the scrubber falls back to quarantine.
func (s *Store) captureHeader() {
	f, err := s.seg.Pool().Get(0)
	if err != nil {
		return
	}
	f.RLatch()
	hc := make([]byte, len(f.Data()))
	copy(hc, f.Data())
	f.RUnlatch()
	f.Release()
	s.hmu.Lock()
	s.headerCopy = hc
	s.hmu.Unlock()
}

// HeaderSnapshot returns the captured header image, nil if none. The
// caller must not mutate it.
func (s *Store) HeaderSnapshot() []byte {
	s.hmu.RLock()
	defer s.hmu.RUnlock()
	return s.headerCopy
}

// Checkpoint makes every committed operation durable and resets the
// log: log first, then all dirty pages, then the checkpoint record and
// log truncation. It excludes mutators for its duration but not
// readers. Without a log it degrades to a plain flush.
func (s *Store) Checkpoint() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.checkpointLocked()
}

func (s *Store) checkpointLocked() error {
	sp := s.tracer.Start("checkpoint")
	defer sp.End()
	start := telemetry.Now()
	pool := s.seg.Pool()
	if s.walW == nil {
		if err := pool.FlushAll(); err != nil {
			return err
		}
		s.mCheckpointNS.Observe(int64(telemetry.Since(start)))
		return nil
	}
	if err := s.walW.Sync(); err != nil {
		return err
	}
	if err := pool.FlushAll(); err != nil { // syncs the device too
		return err
	}
	err := s.walW.Checkpoint(uint64(s.seg.NumPages()))
	// Whether or not the log reset went through, the checkpoint record may
	// be in the log, and recovery replays nothing in front of it: no page
	// has an image in what it would replay, so none may log a shift
	// against one. Advancing is always the conservative choice.
	pool.AdvanceWALEpoch()
	if err != nil {
		return err
	}
	// The checkpoint cleared the log's page images; re-capture the
	// header so page 0 stays repairable in the fresh epoch.
	s.captureHeader()
	s.mCheckpointNS.Observe(int64(telemetry.Since(start)))
	return nil
}

// runOp executes fn as one logged operation, labelled kind+subject in
// the log (the two are only joined there: a node edit is one operation,
// and a string per edit that only a log dump reads is an allocation per
// edit). Caller holds the writer mutex. On error the operation's page
// effects are rolled back from the log before the error is returned.
func (s *Store) runOp(kind, subject string, fn func() error) error {
	if s.walW == nil {
		return fn()
	}
	begin, err := s.walW.BeginOn(kind, subject, uint64(s.seg.NumPages()))
	if err != nil {
		return err
	}
	opErr := fn()
	if opErr == nil {
		if err := s.walW.Commit(); err != nil {
			return fmt.Errorf("docstore: commit %q: %w", kind+subject, err)
		}
		if s.walW.Size() > checkpointLogSize {
			// Best effort: the operation is already durably committed,
			// so its result must not report a checkpoint hiccup as
			// failure. A failed checkpoint only leaves the log longer;
			// the next commit, Flush or Close retries and surfaces it.
			_ = s.checkpointLocked()
		}
		return nil
	}
	if rbErr := s.rollbackOp(begin); rbErr != nil {
		return errors.Join(opErr, fmt.Errorf("docstore: rollback of %q failed: %w", kind+subject, rbErr))
	}
	if aErr := s.walW.Abort(); aErr != nil {
		return errors.Join(opErr, aErr)
	}
	return opErr
}

// rollbackOp undoes the active operation's page effects: its log
// records are re-read in reverse and every before-image re-applied
// through the buffer pool, then the device is truncated back to the
// operation's pre-image size and the in-memory state reloaded from the
// restored pages.
func (s *Store) rollbackOp(begin wal.LSN) error {
	lsns, err := s.walW.RecordLSNsSince(begin)
	if err != nil {
		return err
	}
	pool := s.seg.Pool()
	preN := uint64(s.seg.NumPages())
	for i := len(lsns) - 1; i >= 0; i-- {
		rec, err := s.walW.ReadRecord(lsns[i])
		if err != nil {
			return err
		}
		switch rec.Type {
		case wal.RecBegin:
			preN = rec.PreNumPages
		case wal.RecUpdate, wal.RecFirstUpdate, wal.RecShift:
			if err := s.undoOne(rec); err != nil {
				return err
			}
			// RecImage pages are freshly allocated: the truncation below
			// deallocates them wholesale.
		}
	}
	if preN < uint64(s.seg.NumPages()) {
		if err := pool.ShrinkTo(pagedev.PageNo(preN)); err != nil {
			return err
		}
	}
	return s.reloadAfterRollback()
}

// undoOne takes one record back out of its page through the pool
// (wal.Record.Undo, as restart recovery does): the page is in the state
// the record left it in, because the records behind it were undone
// first. The restoration is logged as an ordinary physical update.
func (s *Store) undoOne(rec wal.Record) error {
	f, err := s.seg.Pool().Get(rec.Page)
	if err != nil {
		return err
	}
	defer f.Release()
	f.Latch()
	defer f.Unlatch()
	u := f.BeginUpdate()
	if err := rec.Undo(f.Data()); err != nil {
		f.CancelUpdate(u)
		return err
	}
	return f.EndUpdate(u)
}

// reloadAfterRollback re-reads every in-memory mirror of persistent
// state from the rolled-back pages: the document catalog, the label
// dictionary, the path-index catalog and handle cache, and the parsed-
// record cache. Mutator context.
func (s *Store) reloadAfterRollback() error {
	raw, err := s.seg.RootRID(segment.RootCatalog)
	if err != nil {
		return err
	}
	if raw != 0 {
		var enc [records.RIDSize]byte
		binary.LittleEndian.PutUint64(enc[:], raw)
		id := records.DecodeRID(enc[:])
		body, err := s.blobs.Read(id)
		if err != nil {
			return fmt.Errorf("docstore: reload catalog: %w", err)
		}
		s.cmu.Lock()
		s.catalog = make(map[string]*DocInfo)
		err = s.decodeCatalog(body)
		s.cmu.Unlock()
		if err != nil {
			return err
		}
		s.catalogID = id
	}
	if err := s.dict.Reload(); err != nil {
		return err
	}
	if s.pindex != nil {
		if err := s.pindex.Reload(); err != nil {
			return err
		}
	}
	s.trees.InvalidateCache()
	return nil
}

// Upgrade brings a store whose segment predates record format 5 (a
// segment format version below segment.FormatVersion) up to it: the
// records of every tree-mode document are rewritten, their proxies
// counted, under their RIDs (core.Tree.UpgradeRecords: moved when they
// grew, split when they outgrew a page), each document as one logged
// operation; then
// a checkpoint makes them durable, and only then does the segment header
// take the current version, itself a logged operation, checkpointed too.
// A crash anywhere leaves a store the next Open upgrades again from where
// it stood — a record already in format 5 is read, not written — and a
// store whose header is current is not touched at all. It runs before
// the store serves anything: Open calls it.
func (s *Store) Upgrade() error {
	if s.seg.FormatVersion() >= segment.FormatVersion {
		return nil
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	for _, info := range s.Documents() {
		if info.Mode != ModeTree {
			continue
		}
		tree := s.trees.OpenTree(info.Root)
		if err := s.runOp("upgrade ", info.Name, func() error {
			_, err := tree.UpgradeRecords()
			return err
		}); err != nil {
			return fmt.Errorf("docstore: upgrade of %q: %w", info.Name, err)
		}
	}
	if err := s.checkpointLocked(); err != nil {
		return err
	}
	if err := s.runOp("upgrade", "", s.seg.FinishUpgrade); err != nil {
		return err
	}
	return s.checkpointLocked()
}
