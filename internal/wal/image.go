package wal

import (
	"fmt"

	"natix/internal/pagedev"
)

// Page-image index: the repair half of the log's contract.
//
// The physiological protocol guarantees that the first record touching
// a page after a checkpoint carries a full image — RecFirstUpdate's
// before-image for an existing page, RecImage's after-image for a
// freshly allocated one. Every later change to the page is a RecUpdate
// whose ranges carry both before and after bytes, or a RecShift that
// says which bytes moved. So for any page with an image-bearing record
// in the current checkpoint epoch, the log alone determines the page's
// current content: start from the image, redo everything that follows. That is exactly
// what the integrity scrubber needs when the device copy fails its
// checksum — the log reaches further than undo/redo recovery: it can
// rebuild a page the device has silently destroyed.

// LatestImage returns the LSN of the most recent image-bearing record
// (RecImage or RecFirstUpdate) for page p in the current checkpoint
// epoch, or false if the log holds no image of p — in which case the
// page cannot be reconstructed and damage to it is permanent.
func (w *Writer) LatestImage(p pagedev.PageNo) (LSN, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	lsn, ok := w.images[p]
	return lsn, ok
}

// ImagedPages returns every page the current checkpoint epoch holds a
// full image for — the set ReconstructPage can repair.
func (w *Writer) ImagedPages() []pagedev.PageNo {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]pagedev.PageNo, 0, len(w.images))
	for p := range w.images {
		out = append(out, p)
	}
	return out
}

// ReconstructPage rebuilds the current content of page p from the log:
// the latest full image, plus the redo of every subsequent record
// touching p, applied in log order (Record.Redo, as restart recovery).
// Compensating updates from aborted operations are ordinary records and
// replay like any other, so the result reflects all committed state and
// no aborted state — byte-identical to what the buffer pool would write
// back.
//
// Returns (nil, false, nil) when the log holds no image of p.
func (w *Writer) ReconstructPage(p pagedev.PageNo, pageSize int) ([]byte, bool, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	start, ok := w.images[p]
	if !ok {
		return nil, false, nil
	}
	buf := make([]byte, pageSize)
	lsn := start
	end := w.endLocked()
	first := true
	for lsn < end {
		payload, n, err := w.readFrameLocked(lsn)
		if err != nil {
			return nil, false, fmt.Errorf("wal: reconstruct page %d: %w", p, err)
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return nil, false, fmt.Errorf("wal: reconstruct page %d: %w", p, err)
		}
		if first {
			// The index points at an image-bearing record for p.
			first = false
			if rec.Type != RecImage && rec.Type != RecFirstUpdate {
				return nil, false, fmt.Errorf("wal: reconstruct page %d: index points at %s record", p, TypeName(rec.Type))
			}
		}
		if rec.Page == p {
			if err := rec.Redo(buf); err != nil {
				return nil, false, fmt.Errorf("wal: reconstruct page %d: %w", p, err)
			}
		}
		lsn += LSN(n)
	}
	return buf, true, nil
}
