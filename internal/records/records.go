// Package records implements the NATIX physical record manager. Records
// are byte strings up to one page in size, identified by a stable RID =
// (pageid, slot) pair (paper §2.1).
//
// Records keep their RID for life: when an update outgrows its page the
// record body moves to another page and the home slot becomes a
// forwarding stub holding the new location, so references held by upper
// layers (proxies, parent pointers, catalog entries) never need rewriting
// just because a record moved. Forwarding chains are at most one hop —
// re-moving a forwarded record patches the original stub.
//
// Allocation takes a proximity hint so callers can "store parent with
// children and sibling nodes on the same page if possible" (§4.2).
package records

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"natix/internal/buffer"
	"natix/internal/pagedev"
	"natix/internal/pageformat"
	"natix/internal/segment"
)

// RIDSize is the on-disk size of an encoded RID: 48-bit page number plus
// 16-bit slot ("Standalone objects contain their parent record as RID
// (8 bytes)", paper App. A).
const RIDSize = 8

// RID identifies a record: a (pageid, slot) pair.
type RID struct {
	Page pagedev.PageNo
	Slot uint16
}

// NilRID is the zero RID. Page 0 holds the segment header, so no record
// ever lives there and the zero value safely means "no record".
var NilRID = RID{}

// IsNil reports whether r is the nil RID.
func (r RID) IsNil() bool { return r == NilRID }

// String formats the RID as page:slot.
func (r RID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// Encode appends the 8-byte encoding of r to dst.
func (r RID) Encode(dst []byte) []byte {
	var b [RIDSize]byte
	r.Put(b[:])
	return append(dst, b[:]...)
}

// Put writes the 8-byte encoding of r into b.
func (r RID) Put(b []byte) {
	_ = b[7]
	v := uint64(r.Page)
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	binary.LittleEndian.PutUint16(b[6:], r.Slot)
}

// DecodeRID reads an 8-byte RID from b.
func DecodeRID[B ~[]byte | ~string](b B) RID {
	_ = b[7]
	page := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 |
		uint64(b[3])<<24 | uint64(b[4])<<32 | uint64(b[5])<<40
	return RID{Page: pagedev.PageNo(page), Slot: uint16(b[6]) | uint16(b[7])<<8}
}

// Errors.
var (
	ErrNotFound  = errors.New("records: no such record")
	ErrTooLarge  = errors.New("records: record exceeds page capacity")
	ErrTooSmall  = errors.New("records: record smaller than minimum")
	ErrCorrupt   = errors.New("records: forwarding chain corrupt")
	ErrBadOffset = errors.New("records: patch range outside record")
)

// MinRecordSize is the smallest storable record. Records must be able to
// shrink in place to a forwarding stub, so they are at least RIDSize.
const MinRecordSize = RIDSize

// Manager provides record CRUD over a segment. Read operations (Read,
// Size, Touch, PageOf, PageFreeBytes) are safe for any number of
// concurrent callers and may run concurrently with one mutator: every
// page access holds the frame latch (shared for reads, exclusive for
// mutations), so a mutator rewriting one page never exposes torn bytes
// to readers of a neighboring record on the same page. Mutating
// operations themselves must be serialized by the caller (package
// docstore holds a single writer lock).
type Manager struct {
	seg *segment.Segment

	// edit is Edit's copy of the body it edits.
	edit []byte
}

// New creates a record manager over seg.
func New(seg *segment.Segment) *Manager { return &Manager{seg: seg} }

// Segment returns the underlying segment.
func (m *Manager) Segment() *segment.Segment { return m.seg }

// MaxRecordSize returns the net page capacity: the largest record that
// fits on one page. Exceeding it is what forces a tree split (§3.2.2).
func (m *Manager) MaxRecordSize() int { return m.seg.MaxRecordSize() }

// checkSize validates a record body size.
func (m *Manager) checkSize(n int) error {
	if n < MinRecordSize {
		return fmt.Errorf("%w: %d bytes (min %d)", ErrTooSmall, n, MinRecordSize)
	}
	if n > m.MaxRecordSize() {
		return fmt.Errorf("%w: %d bytes (max %d)", ErrTooLarge, n, m.MaxRecordSize())
	}
	return nil
}

// Insert stores data as a new record, preferring pages near the hint
// page (0 = no preference), and returns its RID.
func (m *Manager) Insert(data []byte, near pagedev.PageNo) (RID, error) {
	if err := m.checkSize(len(data)); err != nil {
		return NilRID, err
	}
	// Retry a few times: the free-space inventory is conservative but a
	// page may still refuse a cell when its directory needs a new slot.
	needNear := near
	for attempt := 0; attempt < 4; attempt++ {
		p, err := m.seg.FindSpace(len(data)+pageformat.SlotOverhead, needNear)
		if err != nil {
			return NilRID, err
		}
		f, err := m.seg.Pool().Get(p)
		if err != nil {
			return NilRID, err
		}
		f.Latch()
		sl, err := pageformat.AsSlotted(f.Data())
		if err != nil {
			f.Unlatch()
			f.Release()
			return NilRID, err
		}
		u := f.BeginUpdate()
		slot, ok := sl.Insert(data)
		free := sl.FreeBytes()
		if ok {
			err = f.EndUpdate(u)
		} else {
			f.CancelUpdate(u)
		}
		f.Unlatch()
		f.Release()
		if err != nil {
			return NilRID, err
		}
		if err := m.seg.NotifyFree(p, free); err != nil {
			return NilRID, err
		}
		if ok {
			return RID{Page: p, Slot: uint16(slot)}, nil
		}
		needNear = 0 // hint page failed; let the inventory pick elsewhere
	}
	return NilRID, fmt.Errorf("records: could not place %d-byte record", len(data))
}

// resolve follows at most one forwarding hop and returns the physical
// location of the record body. home==loc when the record is not forwarded.
func (m *Manager) resolve(rid RID) (loc RID, forwarded bool, err error) {
	f, err := m.seg.Pool().Get(rid.Page)
	if err != nil {
		return NilRID, false, err
	}
	defer f.Release()
	f.RLatch()
	defer f.RUnlatch()
	sl, err := pageformat.AsSlotted(f.Data())
	if err != nil {
		return NilRID, false, err
	}
	fl, err := sl.Flag(int(rid.Slot))
	if err != nil {
		return NilRID, false, fmt.Errorf("%w: %s: %v", ErrNotFound, rid, err)
	}
	if !fl {
		return rid, false, nil
	}
	cell, err := sl.Cell(int(rid.Slot))
	if err != nil {
		return NilRID, false, err
	}
	if len(cell) != RIDSize {
		return NilRID, false, fmt.Errorf("%w: stub at %s has %d bytes", ErrCorrupt, rid, len(cell))
	}
	return DecodeRID(cell), true, nil
}

// Read returns a copy of the record body.
func (m *Manager) Read(rid RID) ([]byte, error) { return m.ReadInto(rid, nil) }

// ReadInto is Read into dst[:0], grown when too small.
func (m *Manager) ReadInto(rid RID, dst []byte) ([]byte, error) {
	if _, err := m.readCell(rid, func(cell []byte) { dst = append(dst[:0], cell...) }); err != nil {
		return nil, err
	}
	return dst, nil
}

// ReadString is Read into an immutable string, made in one allocation.
// It also returns where the body lies — rid itself unless the record is
// forwarded — for a cache that charges its hits with TouchAt.
func (m *Manager) ReadString(rid RID) (string, RID, error) {
	var b strings.Builder
	loc, err := m.readCell(rid, func(cell []byte) {
		b.Grow(len(cell))
		b.Write(cell)
	})
	return b.String(), loc, err
}

// readCell hands the record body, in its read-latched page, to fn, and
// returns where the body lies.
func (m *Manager) readCell(rid RID, fn func(cell []byte)) (RID, error) {
	loc, fwd, err := m.resolve(rid)
	if err != nil {
		return NilRID, err
	}
	f, err := m.seg.Pool().Get(loc.Page)
	if err != nil {
		return NilRID, err
	}
	defer f.Release()
	f.RLatch()
	defer f.RUnlatch()
	sl, err := pageformat.AsSlotted(f.Data())
	if err != nil {
		return NilRID, err
	}
	if fwd {
		if fl, err := sl.Flag(int(loc.Slot)); err != nil || fl {
			return NilRID, fmt.Errorf("%w: %s forwards to %s which is %v/%v", ErrCorrupt, rid, loc, fl, err)
		}
	}
	cell, err := sl.Cell(int(loc.Slot))
	if err != nil {
		return NilRID, fmt.Errorf("%w: %s: %v", ErrNotFound, rid, err)
	}
	fn(cell)
	return loc, nil
}

// VerifyRID checks that rid resolves to a readable record body —
// forwarding stub intact, target slot live, cell bounds valid — without
// copying the body out. The integrity scrubber uses it to confirm that
// catalog and index entries still point at live records.
func (m *Manager) VerifyRID(rid RID) error {
	_, err := m.Size(rid)
	return err
}

// Size returns the record body length in bytes.
func (m *Manager) Size(rid RID) (int, error) {
	loc, _, err := m.resolve(rid)
	if err != nil {
		return 0, err
	}
	f, err := m.seg.Pool().Get(loc.Page)
	if err != nil {
		return 0, err
	}
	defer f.Release()
	f.RLatch()
	defer f.RUnlatch()
	sl, err := pageformat.AsSlotted(f.Data())
	if err != nil {
		return 0, err
	}
	cell, err := sl.Cell(int(loc.Slot))
	if err != nil {
		return 0, err
	}
	return len(cell), nil
}

// PageOf returns the page physically holding the record body, for use as
// an allocation proximity hint.
func (m *Manager) PageOf(rid RID) (pagedev.PageNo, error) {
	loc, _, err := m.resolve(rid)
	if err != nil {
		return 0, err
	}
	return loc.Page, nil
}

// Touch registers a logical access to the record's page(s) without
// reading the body, and returns where the body lies — rid itself unless
// the record is forwarded. Upper-level caches use it so cache hits still
// flow through the buffer manager; one that keeps the location charges
// later hits with TouchAt instead, which does not look into the page.
func (m *Manager) Touch(rid RID) (RID, error) {
	loc, fwd, err := m.resolve(rid)
	if err != nil {
		return NilRID, err
	}
	if fwd {
		return loc, m.seg.Pool().Touch(loc.Page)
	}
	return loc, nil
}

// TouchAt is Touch for a caller that knows where the body lies (body,
// as Touch or ReadString returned it, and valid as long as the record
// has not been written since): the same pages are charged, the home
// page and for a forwarded record the body's, each with one
// buffer.Pool.Touch — a resident page is not pinned, latched or parsed.
func (m *Manager) TouchAt(rid, body RID) error {
	pool := m.seg.Pool()
	if err := pool.Touch(rid.Page); err != nil {
		return err
	}
	if body != rid {
		return pool.Touch(body.Page)
	}
	return nil
}

// Splice replaces the record body by data when that fits on the page
// the body lies on, for a caller that knows where data differs from the
// stored body: from byte from on, and before that only in the two-byte
// fields at the offsets in fields. The page is then edited, and the
// change logged, in those bytes alone (pageformat.Slotted.Splice) — and
// when behind from data is the stored body with bytes inserted or
// removed there, which is what a node edit is, as that shift instead of
// the bytes it moves. It reports false, with nothing changed, when the
// page cannot hold data; Update then moves the body.
func (m *Manager) Splice(rid RID, data []byte, from int, fields []int) (bool, error) {
	if err := m.checkSize(len(data)); err != nil {
		return false, err
	}
	loc, _, err := m.resolve(rid)
	if err != nil {
		return false, err
	}
	return m.spliceAt(loc, data, from, fields)
}

// spliceAt is Splice at the resolved location of the body.
func (m *Manager) spliceAt(loc RID, data []byte, from int, fields []int) (bool, error) {
	f, err := m.seg.Pool().Get(loc.Page)
	if err != nil {
		return false, err
	}
	f.Latch()
	sl, err := pageformat.AsSlotted(f.Data())
	if err != nil {
		f.Unlatch()
		f.Release()
		return false, err
	}
	ok, err := spliceLatched(f, sl, int(loc.Slot), data, from, fields)
	return m.endSplice(f, sl, ok, err)
}

// spliceLatched splices data into the cell in slot of the page of f,
// which the caller holds latched exclusively, inside one logged update
// bracket: a shift when it is one, else the spans Splice writes. It
// reports false, with nothing changed, when the page cannot hold data.
func spliceLatched(f *buffer.Frame, sl pageformat.Slotted, slot int, data []byte, from int, fields []int) (bool, error) {
	var (
		buf [16]pageformat.Span
		u   buffer.Update
	)
	if spans, sh, ok := sl.SpliceShift(buf[:0], slot, data, from, fields); ok {
		u = f.BeginShift(sh, spans...)
	} else {
		spans, ok := sl.SpliceSpans(buf[:0], slot, len(data), from, fields)
		if !ok {
			return false, nil
		}
		u = f.BeginUpdate(spans...)
	}
	sl.Splice(slot, data, from, fields)
	return true, f.EndUpdate(u)
}

// endSplice unlatches and releases the frame of a splice that reported
// ok and err, and tells the free-space inventory what the page has left
// when the splice happened.
func (m *Manager) endSplice(f *buffer.Frame, sl pageformat.Slotted, ok bool, err error) (bool, error) {
	free := sl.FreeBytes()
	page := f.Page()
	f.Unlatch()
	f.Release()
	if !ok || err != nil {
		return false, err
	}
	return true, m.seg.NotifyFree(page, free)
}

// An Editor turns a copy of a record's stored body into its new body,
// for Edit. Edit hands it body, with capacity for the largest record,
// and it returns the new body and where it differs from the stored one,
// as Splice is told (from, fields), or false for no edit.
type Editor interface {
	Edit(body []byte) (data []byte, from int, fields []int, ok bool)
}

// Edit is Splice for a caller that computes the new body from the stored
// one: the page the body lies on is pinned and latched once, the body is
// copied into the manager's buffer, ed edits the copy and the result is
// spliced into the page inside that same frame — no second resolve of
// the RID and no second pin. A forwarded record costs its home page's
// visit too. It reports false, with nothing changed, when ed declines or
// the page cannot hold the new body; Update then moves the body. The
// page bytes and the log records are those Splice writes for the same
// new body. Mutator context: the manager's buffer is the writer's.
func (m *Manager) Edit(rid RID, ed Editor) (bool, error) {
	f, sl, loc, err := m.latchBody(rid)
	if err != nil {
		return false, err
	}
	slot := int(loc.Slot)
	cell, err := sl.Cell(slot)
	if err != nil {
		return m.endSplice(f, sl, false, fmt.Errorf("%w: %s: %v", ErrNotFound, rid, err))
	}
	if m.edit == nil {
		m.edit = make([]byte, 0, m.MaxRecordSize())
	}
	data, from, fields, ok := ed.Edit(append(m.edit[:0], cell...))
	if ok {
		err = m.checkSize(len(data))
	}
	if !ok || err != nil {
		return m.endSplice(f, sl, false, err)
	}
	ok, err = spliceLatched(f, sl, slot, data, from, fields)
	return m.endSplice(f, sl, ok, err)
}

// latchBody pins and latches exclusively the page the body of record
// rid lies on, and returns it with where the body lies: the home page,
// or for a forwarded record — after a visit to the home page to read the
// stub — the page the stub names. On error nothing is held.
func (m *Manager) latchBody(rid RID) (*buffer.Frame, pageformat.Slotted, RID, error) {
	f, sl, fwd, err := m.latchSlot(rid)
	if err != nil || !fwd {
		return f, sl, rid, err
	}
	cell, err := sl.Cell(int(rid.Slot))
	if err == nil && len(cell) != RIDSize {
		err = fmt.Errorf("%w: stub at %s has %d bytes", ErrCorrupt, rid, len(cell))
	}
	var loc RID
	if err == nil {
		loc = DecodeRID(cell)
	}
	f.Unlatch()
	f.Release()
	if err != nil {
		return nil, sl, NilRID, err
	}
	if f, sl, fwd, err = m.latchSlot(loc); err == nil && fwd {
		f.Unlatch()
		f.Release()
		err = fmt.Errorf("%w: %s forwards to %s, itself a stub", ErrCorrupt, rid, loc)
	}
	return f, sl, loc, err
}

// latchSlot pins and latches exclusively page loc.Page and reports
// whether slot loc.Slot holds a forwarding stub. On error nothing is
// held.
func (m *Manager) latchSlot(loc RID) (*buffer.Frame, pageformat.Slotted, bool, error) {
	f, err := m.seg.Pool().Get(loc.Page)
	if err != nil {
		return nil, pageformat.Slotted{}, false, err
	}
	f.Latch()
	sl, err := pageformat.AsSlotted(f.Data())
	var fl bool
	if err == nil {
		if fl, err = sl.Flag(int(loc.Slot)); err != nil {
			err = fmt.Errorf("%w: %s: %v", ErrNotFound, loc, err)
		}
	}
	if err != nil {
		f.Unlatch()
		f.Release()
		return nil, sl, false, err
	}
	return f, sl, fl, nil
}

// Update replaces the record body. The RID stays valid: if the new body
// does not fit on its current page the body moves and the home slot
// becomes (or re-targets) a forwarding stub. "If there is not enough
// space on the page, try to move r" (paper §3.2, step 2).
func (m *Manager) Update(rid RID, data []byte) error {
	if err := m.checkSize(len(data)); err != nil {
		return err
	}
	loc, fwd, err := m.resolve(rid)
	if err != nil {
		return err
	}
	// Try in place at the current body location.
	if ok, err := m.spliceAt(loc, data, 0, nil); ok || err != nil {
		return err
	}

	// Move: place the new body elsewhere, then point the home slot at it.
	newLoc, err := m.insertBody(data, loc.Page)
	if err != nil {
		return err
	}
	if fwd {
		// Home already holds a stub: delete the old body, retarget stub.
		if err := m.deleteCell(loc); err != nil {
			return err
		}
		return m.patchStub(rid, newLoc)
	}
	// Shrink the home cell into a stub in place (records are always at
	// least RIDSize bytes, so this cannot fail for lack of space).
	f, err := m.seg.Pool().Get(rid.Page)
	if err != nil {
		return err
	}
	f.Latch()
	sl, err := pageformat.AsSlotted(f.Data())
	if err != nil {
		f.Unlatch()
		f.Release()
		return err
	}
	u := f.BeginUpdate()
	var stub [RIDSize]byte
	newLoc.Put(stub[:])
	if !sl.Update(int(rid.Slot), stub[:]) {
		f.CancelUpdate(u)
		f.Unlatch()
		f.Release()
		return fmt.Errorf("records: cannot install forwarding stub at %s", rid)
	}
	if err := sl.SetFlag(int(rid.Slot), true); err != nil {
		// The stub bytes are already in place: log them even on this
		// (unreachable) path so the log never lags the page.
		_ = f.EndUpdate(u)
		f.Unlatch()
		f.Release()
		return err
	}
	free := sl.FreeBytes()
	err = f.EndUpdate(u)
	f.Unlatch()
	f.Release()
	if err != nil {
		return err
	}
	return m.seg.NotifyFree(rid.Page, free)
}

// insertBody places a record body on some page (near a hint), without
// touching forwarding state. Used by Update when relocating.
func (m *Manager) insertBody(data []byte, near pagedev.PageNo) (RID, error) {
	// Never place the body on the near page itself — Update already
	// failed there — so clear the hint if it matches.
	rid, err := m.Insert(data, near)
	if err != nil {
		return NilRID, err
	}
	return rid, nil
}

// patchStub rewrites the stub at home to point at newLoc.
func (m *Manager) patchStub(home, newLoc RID) error {
	f, err := m.seg.Pool().Get(home.Page)
	if err != nil {
		return err
	}
	defer f.Release()
	f.Latch()
	defer f.Unlatch()
	sl, err := pageformat.AsSlotted(f.Data())
	if err != nil {
		return err
	}
	cell, err := sl.CellSpan(int(home.Slot))
	if err != nil {
		return err
	}
	if cell.Len != RIDSize {
		return fmt.Errorf("%w: stub at %s has %d bytes", ErrCorrupt, home, cell.Len)
	}
	u := f.BeginUpdate(cell)
	newLoc.Put(f.Data()[cell.Off:])
	return f.EndUpdate(u)
}

// deleteCell removes one physical cell and updates the inventory.
func (m *Manager) deleteCell(loc RID) error {
	f, err := m.seg.Pool().Get(loc.Page)
	if err != nil {
		return err
	}
	f.Latch()
	sl, err := pageformat.AsSlotted(f.Data())
	if err != nil {
		f.Unlatch()
		f.Release()
		return err
	}
	u := f.BeginUpdate()
	if err := sl.Delete(int(loc.Slot)); err != nil {
		f.CancelUpdate(u)
		f.Unlatch()
		f.Release()
		return err
	}
	free := sl.FreeBytes()
	err = f.EndUpdate(u)
	f.Unlatch()
	f.Release()
	if err != nil {
		return err
	}
	return m.seg.NotifyFree(loc.Page, free)
}

// Delete removes the record, including its forwarding stub if any.
func (m *Manager) Delete(rid RID) error {
	loc, fwd, err := m.resolve(rid)
	if err != nil {
		return err
	}
	if err := m.deleteCell(loc); err != nil {
		return err
	}
	if fwd {
		return m.deleteCell(rid)
	}
	return nil
}

// Patch overwrites len(data) bytes of the record body in place at the
// given offset. The record length is unchanged. Used for cheap parent-
// pointer fixups after splits.
func (m *Manager) Patch(rid RID, off int, data []byte) error {
	loc, _, err := m.resolve(rid)
	if err != nil {
		return err
	}
	f, err := m.seg.Pool().Get(loc.Page)
	if err != nil {
		return err
	}
	defer f.Release()
	f.Latch()
	defer f.Unlatch()
	sl, err := pageformat.AsSlotted(f.Data())
	if err != nil {
		return err
	}
	cell, err := sl.CellSpan(int(loc.Slot))
	if err != nil {
		return err
	}
	if off < 0 || off+len(data) > cell.Len {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrBadOffset, off, off+len(data), cell.Len)
	}
	u := f.BeginUpdate(buffer.Window{Off: cell.Off + off, Len: len(data)})
	copy(f.Data()[cell.Off+off:], data)
	return f.EndUpdate(u)
}

// PageFreeBytes returns the exact free byte count of a data page. The
// tree manager compares candidate insertion pages with it ("wherever
// there is more free space", §3.3).
func (m *Manager) PageFreeBytes(p pagedev.PageNo) (int, error) {
	f, err := m.seg.Pool().Get(p)
	if err != nil {
		return 0, err
	}
	defer f.Release()
	f.RLatch()
	defer f.RUnlatch()
	sl, err := pageformat.AsSlotted(f.Data())
	if err != nil {
		return 0, err
	}
	return sl.FreeBytes(), nil
}
