package wal

import (
	"bytes"
	"fmt"

	"natix/internal/pageformat"
)

// Redo applies the record's change to page, the image of r.Page: the
// one redo every consumer of page records uses — restart recovery, page
// reconstruction and the update brackets' checking mode. The three
// physical shapes are blind byte copies; a shift first checks that the
// bytes it is about to destroy are the ones it recorded, so one applied
// to a page in any other state than the one it was logged against is
// refused instead of moving the wrong bytes. Records that describe no
// page change are a no-op. Errors wrap ErrBadRecord and leave page
// untouched.
func (r *Record) Redo(page []byte) error {
	switch r.Type {
	case RecImage:
		if len(r.Image) != len(page) {
			return fmt.Errorf("%w: image of %d bytes for a %d-byte page", ErrBadRecord, len(r.Image), len(page))
		}
		copy(page, r.Image)
	case RecFirstUpdate:
		if len(r.BeforeImage) != len(page) {
			return fmt.Errorf("%w: before-image of %d bytes for a %d-byte page", ErrBadRecord, len(r.BeforeImage), len(page))
		}
		if err := checkRanges(r.Ranges, len(page)); err != nil {
			return err
		}
		copy(page, r.BeforeImage)
		copyRanges(page, r.Ranges, true)
	case RecUpdate:
		if err := checkRanges(r.Ranges, len(page)); err != nil {
			return err
		}
		copyRanges(page, r.Ranges, true)
	case RecShift:
		sh := &r.Shift
		if err := r.checkShift(page, true); err != nil {
			return err
		}
		if k := sh.Delta; k > 0 {
			copy(page[sh.Off+k:], page[sh.Off:sh.Off+sh.Tail])
			copy(page[sh.Off:], sh.Ins)
		} else {
			copy(page[sh.Off:], page[sh.Off-k:sh.Off-k+sh.Tail])
		}
		copyRanges(page, r.Ranges, true)
	}
	return nil
}

// Undo takes the record's change back out of page, which must hold it:
// the inverse of Redo, used by restart recovery's undo pass, runtime
// rollback and the checking mode. A first-update restores its whole
// before-image. Undoing an image record changes no bytes — the page it
// allocated dies with the device truncation, which is the caller's.
func (r *Record) Undo(page []byte) error {
	switch r.Type {
	case RecFirstUpdate:
		if len(r.BeforeImage) != len(page) {
			return fmt.Errorf("%w: before-image of %d bytes for a %d-byte page", ErrBadRecord, len(r.BeforeImage), len(page))
		}
		copy(page, r.BeforeImage)
	case RecUpdate:
		if err := checkRanges(r.Ranges, len(page)); err != nil {
			return err
		}
		copyRanges(page, r.Ranges, false)
	case RecShift:
		sh := &r.Shift
		if err := r.checkShift(page, false); err != nil {
			return err
		}
		copyRanges(page, r.Ranges, false)
		if k := sh.Delta; k > 0 {
			copy(page[sh.Off:], page[sh.Off+k:sh.Off+k+sh.Tail])
			copy(page[sh.Off+sh.Tail:], sh.Del)
		} else {
			copy(page[sh.Off-k:], page[sh.Off:sh.Off+sh.Tail])
			copy(page[sh.Off:], sh.Del)
		}
	}
	return nil
}

// checkRanges bounds every range to a page of n bytes.
func checkRanges(ranges []Range, n int) error {
	for _, rg := range ranges {
		if rg.Off < 0 || len(rg.Before) != len(rg.After) || rg.Off+len(rg.After) > n {
			return fmt.Errorf("%w: range [%d,%d) on %d-byte page", ErrBadRecord, rg.Off, rg.Off+len(rg.After), n)
		}
	}
	return nil
}

// copyRanges lays the after-bytes (redo) or before-bytes of ranges,
// already bounded, onto page.
func copyRanges(page []byte, ranges []Range, redo bool) {
	for _, rg := range ranges {
		if redo {
			copy(page[rg.Off:], rg.After)
		} else {
			copy(page[rg.Off:], rg.Before)
		}
	}
}

// checkShift validates a shift record against the page it is about to
// be applied to (redo) or taken out of: the moved region and every
// range lie inside the page, none overlaps another — so the order of
// application cannot matter and undo is the exact inverse — and the
// bytes the application destroys are the ones the record holds.
func (r *Record) checkShift(page []byte, redo bool) error {
	sh := &r.Shift
	k := sh.Delta
	if k < 0 {
		k = -k
	}
	end := sh.Off + sh.Tail + k // the region is [Off, end)
	if k == 0 || sh.Off < 0 || sh.Tail < 0 || end > len(page) ||
		len(sh.Del) != k || sh.Delta > 0 && len(sh.Ins) != k || sh.Delta < 0 && len(sh.Ins) != 0 {
		return fmt.Errorf("%w: shift of %d bytes at %d by %d on %d-byte page", ErrBadRecord, sh.Tail, sh.Off, sh.Delta, len(page))
	}
	if err := checkRanges(r.Ranges, len(page)); err != nil {
		return err
	}
	for i, rg := range r.Ranges {
		lo, hi := rg.Off, rg.Off+len(rg.After)
		if lo < end && sh.Off < hi {
			return fmt.Errorf("%w: range [%d,%d) inside the shifted region [%d,%d)", ErrBadRecord, lo, hi, sh.Off, end)
		}
		for _, o := range r.Ranges[:i] {
			if lo < o.Off+len(o.After) && o.Off < hi {
				return fmt.Errorf("%w: ranges overlap at %d", ErrBadRecord, max(lo, o.Off))
			}
		}
		was := rg.Before
		if !redo {
			was = rg.After
		}
		if !bytes.Equal(page[lo:hi], was) {
			return fmt.Errorf("%w: shift does not apply: page differs from the record at [%d,%d)", ErrBadRecord, lo, hi)
		}
	}
	// What the move is about to overwrite for good.
	at, was := sh.Destroyed(), sh.Del
	if !redo {
		if sh.Delta < 0 {
			return nil // undoing a removal overwrites the moved tail's own copy only
		}
		at, was = pageformat.Span{Off: sh.Off, Len: k}, sh.Ins
	}
	if !bytes.Equal(page[at.Off:at.Off+at.Len], was) {
		return fmt.Errorf("%w: shift does not apply: page differs from the record at [%d,%d)", ErrBadRecord, at.Off, at.Off+at.Len)
	}
	return nil
}
