// Package records implements the NATIX physical record manager. Records
// are byte strings up to one page in size, identified by a stable RID =
// (pageid, slot) pair (paper §2.1).
//
// Records keep their RID for life: when an update outgrows its page the
// record body moves to another page and the home slot becomes a
// forwarding stub holding the new location, so references held by upper
// layers (proxies, parent pointers, catalog entries) never need rewriting
// just because a record moved. Forwarding chains are at most one hop —
// re-moving a forwarded record patches the original stub. An access
// reaches a record in one visit of each page its body lies on — the home
// page and, behind a stub, the page the stub names — so it costs one
// logical read per such page (see Manager).
//
// Allocation takes a proximity hint so callers can "store parent with
// children and sibling nodes on the same page if possible" (§4.2).
package records

import (
	"encoding/binary"
	"errors"
	"fmt"

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
// Size, View, PageOf, PageFreeBytes) are safe for any number of
// concurrent callers and may run concurrently with one mutator: every
// page access holds the frame latch (shared for reads, exclusive for
// mutations), so a mutator rewriting one page never exposes torn bytes
// to readers of a neighboring record on the same page. Mutating
// operations themselves must be serialized by the caller (package
// docstore holds a single writer lock).
//
// Every page access is one visit: the page pinned, latched and parsed
// once, and let go on one path. An access to a record visits the pages
// its body lies on — the home page and, for a forwarded record, once the
// stub is read and the home page let go, the page the stub names, whose
// slot must hold the body and not another stub — and runs inside that
// visit, so it costs one logical read per page its body lies on, read or
// write, hit or miss.
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

// A visit is one page held by the manager: pinned, latched — shared to
// read, exclusively to write — and parsed. A visit of a record's body
// also says where the body lies.
type visit struct {
	f    *buffer.Frame
	sl   pageformat.Slotted
	loc  RID             // where the body lies: the record's own RID unless fwd
	cell pageformat.Span // the visited slot's cell: the body, or home's stub

	write bool
	fwd   bool // the record's home slot holds a forwarding stub
}

// pin visits page p, into v. On error nothing is held; otherwise done
// ends the visit.
func (m *Manager) pin(v *visit, p pagedev.PageNo, write bool) error {
	f, err := m.seg.Pool().Get(p)
	if err != nil {
		return err
	}
	*v = visit{f: f, write: write}
	if write {
		f.Latch()
	} else {
		f.RLatch()
	}
	if v.sl, err = pageformat.AsSlotted(f.Data()); err != nil {
		v.done()
		return err
	}
	return nil
}

// done unlatches and unpins the page of v.
func (v *visit) done() {
	if v.write {
		v.f.Unlatch()
	} else {
		v.f.RUnlatch()
	}
	v.f.Release()
}

// bytes returns the body's bytes in the page; they alias the page and are
// valid until done.
func (v *visit) bytes() []byte { return v.f.Data()[v.cell.Off : v.cell.Off+v.cell.Len] }

// home visits the home page of rid, into v, and reads its slot: the body
// itself, or a forwarding stub whose RID becomes v.loc. On error nothing
// is held.
func (m *Manager) home(v *visit, rid RID, write bool) error {
	if err := m.pin(v, rid.Page, write); err != nil {
		return err
	}
	fwd, err := v.sl.Flag(int(rid.Slot))
	if err != nil {
		v.done()
		return fmt.Errorf("%w: %s: %v", ErrNotFound, rid, err)
	}
	v.loc, v.fwd = rid, fwd
	v.cell, _ = v.sl.CellSpan(int(rid.Slot)) // Flag found the slot live
	if fwd {
		if v.cell.Len != RIDSize {
			v.done()
			return fmt.Errorf("%w: stub at %s has %d bytes", ErrCorrupt, rid, v.cell.Len)
		}
		v.loc = DecodeRID(v.bytes())
	}
	return nil
}

// body visits the page the body of rid lies on, into v: the home page,
// or for a forwarded record the page the stub names, after the home page
// is let go. A stub that names no live body — a dead slot or another
// stub — is ErrCorrupt. On error nothing is held.
func (m *Manager) body(v *visit, rid RID, write bool) error {
	if err := m.home(v, rid, write); err != nil || !v.fwd {
		return err
	}
	loc := v.loc
	v.done()
	if err := m.pin(v, loc.Page, write); err != nil {
		return err
	}
	if fl, err := v.sl.Flag(int(loc.Slot)); err != nil || fl {
		v.done()
		return fmt.Errorf("%w: %s forwards to %s which is %v/%v", ErrCorrupt, rid, loc, fl, err)
	}
	v.loc, v.fwd = loc, true
	v.cell, _ = v.sl.CellSpan(int(loc.Slot)) // Flag found the slot live
	return nil
}

// end ends write visit v of an update that returned err, and when notify
// and err is nil tells the free-space inventory what the page has left.
func (m *Manager) end(v *visit, notify bool, err error) error {
	free := v.sl.FreeBytes()
	page := v.f.Page()
	v.done()
	if !notify || err != nil {
		return err
	}
	return m.seg.NotifyFree(page, free)
}

// Insert stores data as a new record, preferring pages near the hint
// page (0 = no preference), and returns its RID.
func (m *Manager) Insert(data []byte, near pagedev.PageNo) (RID, error) {
	if err := m.checkSize(len(data)); err != nil {
		return NilRID, err
	}
	// Retry a few times: the free-space inventory is conservative but a
	// page may still refuse a cell when its directory needs a new slot.
	for attempt := 0; attempt < 4; attempt++ {
		p, err := m.seg.FindSpace(len(data)+pageformat.SlotOverhead, near)
		if err != nil {
			return NilRID, err
		}
		var v visit
		if err := m.pin(&v, p, true); err != nil {
			return NilRID, err
		}
		u := v.f.BeginUpdate()
		slot, ok := v.sl.Insert(data)
		if ok {
			err = v.f.EndUpdate(u)
		} else {
			v.f.CancelUpdate(u)
		}
		if err := m.end(&v, true, err); err != nil {
			return NilRID, err
		}
		if ok {
			return RID{Page: p, Slot: uint16(slot)}, nil
		}
		near = 0 // hint page failed; let the inventory pick elsewhere
	}
	return NilRID, fmt.Errorf("records: could not place %d-byte record", len(data))
}

// Read returns a copy of the record body.
func (m *Manager) Read(rid RID) ([]byte, error) { return m.ReadInto(rid, nil) }

// ReadInto is Read into dst[:0], grown when too small.
func (m *Manager) ReadInto(rid RID, dst []byte) ([]byte, error) {
	var v visit
	if err := m.body(&v, rid, false); err != nil {
		return nil, err
	}
	dst = append(dst[:0], v.bytes()...)
	v.done()
	return dst, nil
}

// ReadString is Read into an immutable string, made in one allocation.
// It also returns where the body lies — rid itself unless the record is
// forwarded — for a cache that charges its hits with TouchAt.
func (m *Manager) ReadString(rid RID) (string, RID, error) {
	var v visit
	if err := m.body(&v, rid, false); err != nil {
		return "", NilRID, err
	}
	s := string(v.bytes())
	v.done()
	return s, v.loc, nil
}

// A View is a record's body read where it lies: the page the body lies
// on pinned and latched shared (for a forwarded record, after the home
// page is let go), until Done. Its bytes alias the page, so a view costs
// one logical read per page the body lies on, and no copy. A mutator may
// hold several views at once, two of one page included: a shared latch
// waits only on an exclusive one, and a data page is latched exclusively
// only by a mutator, which the caller serializes. It must end every view
// before it writes.
type View struct{ v visit }

// View visits the body of rid into w. On error nothing is held.
func (m *Manager) View(rid RID, w *View) error { return m.body(&w.v, rid, false) }

// Body returns the body's bytes, valid until Done.
func (w *View) Body() []byte { return w.v.bytes() }

// Loc returns where the body lies: the record's own RID unless it is
// forwarded.
func (w *View) Loc() RID { return w.v.loc }

// Done unlatches and unpins the body's page.
func (w *View) Done() { w.v.done() }

// VerifyRID checks that rid resolves to a readable record body —
// forwarding stub intact and naming a live body, cell bounds valid —
// without copying the body out. The integrity scrubber uses it to
// confirm that catalog and index entries still point at live records.
func (m *Manager) VerifyRID(rid RID) error {
	_, err := m.Size(rid)
	return err
}

// Size returns the record body length in bytes.
func (m *Manager) Size(rid RID) (int, error) {
	var v visit
	if err := m.body(&v, rid, false); err != nil {
		return 0, err
	}
	v.done()
	return v.cell.Len, nil
}

// PageOf returns the page physically holding the record body, for use as
// an allocation proximity hint. It visits the home page only.
func (m *Manager) PageOf(rid RID) (pagedev.PageNo, error) {
	var v visit
	if err := m.home(&v, rid, false); err != nil {
		return 0, err
	}
	v.done()
	return v.loc.Page, nil
}

// TouchAt registers a logical access to the pages of record rid, whose
// body lies at body (as ReadString returned it, and valid as long as the
// record has not been written since), without reading them: an
// upper-level cache charges its hits with it, so they still flow through
// the buffer manager. The pages a read would visit are charged — the home
// page and for a forwarded record the body's — each with one
// buffer.Pool.Touch: a resident page is not pinned, latched or parsed.
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

// splice replaces the body of write visit v by data, for a caller that
// knows where data differs from the stored body: from byte from on, and
// before that only in the two-byte fields at the offsets in fields. The
// page is edited, and the change logged, in those bytes alone
// (pageformat.Slotted.Splice), inside one update bracket — and when
// behind from data is the stored body with bytes inserted or removed
// there, which is what a node edit is, as that shift instead of the
// bytes it moves. It reports false, with nothing changed, when the page
// cannot hold data.
func (v *visit) splice(data []byte, from int, fields []int) (bool, error) {
	var (
		buf [16]pageformat.Span
		u   buffer.Update
	)
	slot := int(v.loc.Slot)
	if spans, sh, ok := v.sl.SpliceShift(buf[:0], slot, data, from, fields); ok {
		u = v.f.BeginShift(sh, spans...)
	} else {
		spans, ok := v.sl.SpliceSpans(buf[:0], slot, len(data), from, fields)
		if !ok {
			return false, nil
		}
		u = v.f.BeginUpdate(spans...)
	}
	v.sl.Splice(slot, data, from, fields)
	return true, v.f.EndUpdate(u)
}

// endSplice ends the visit of a splice that reported ok and err; the
// free-space inventory hears of the page only when the splice happened.
func (m *Manager) endSplice(v *visit, ok bool, err error) (bool, error) {
	return ok && err == nil, m.end(v, ok, err)
}

// An Editor turns a copy of a record's stored body into its new body,
// for Edit. Edit hands it body, with capacity for the largest record,
// and it returns the new body and where it differs from the stored one
// — from byte from on, and before that only in the two-byte fields at
// the offsets in fields — or false for no edit.
type Editor interface {
	Edit(body []byte) (data []byte, from int, fields []int, ok bool)
}

// Edit replaces the record body by what ed makes of it, where the body
// lies, inside one visit of its page: the body is copied into the
// manager's buffer, ed edits the copy and the result is spliced into the
// page — written, and logged, in the bytes ed says changed alone, and as
// a shift when behind from the body had bytes inserted or removed. It
// reports false, with nothing changed, when ed declines or the page
// cannot hold the new body; Update then moves the body. Mutator context:
// the manager's buffer is the writer's.
func (m *Manager) Edit(rid RID, ed Editor) (bool, error) {
	var v visit
	if err := m.body(&v, rid, true); err != nil {
		return false, err
	}
	return m.editIn(&v, ed)
}

// EditView is Edit for the record w views, in the same visit: the page's
// latch is taken exclusively in place of the view's shared one, so an
// edit of a record its caller has just read visits the page once. It
// ends the view. The pinned page cannot change between the two latches:
// only the caller, the one mutator, writes data pages.
func (m *Manager) EditView(w *View, ed Editor) (bool, error) {
	v := &w.v
	v.f.RUnlatch()
	v.f.Latch()
	v.write = true
	return m.editIn(v, ed)
}

// editIn runs ed on the body of write visit v and ends the visit.
func (m *Manager) editIn(v *visit, ed Editor) (bool, error) {
	var err error
	if m.edit == nil {
		m.edit = make([]byte, 0, m.MaxRecordSize())
	}
	data, from, fields, ok := ed.Edit(append(m.edit[:0], v.bytes()...))
	if ok {
		if err = m.checkSize(len(data)); err == nil {
			ok, err = v.splice(data, from, fields)
		}
	}
	return m.endSplice(v, ok, err)
}

// Update replaces the record body. The RID stays valid: if the new body
// does not fit on its current page the body moves and the home slot
// becomes (or re-targets) a forwarding stub. "If there is not enough
// space on the page, try to move r" (paper §3.2, step 2).
func (m *Manager) Update(rid RID, data []byte) error {
	if err := m.checkSize(len(data)); err != nil {
		return err
	}
	var v visit
	if err := m.body(&v, rid, true); err != nil {
		return err
	}
	// Try in place at the current body location.
	ok, err := v.splice(data, 0, nil)
	if ok, err = m.endSplice(&v, ok, err); ok || err != nil {
		return err
	}

	// Move: place the new body elsewhere — the visit is over, as Insert
	// may pick the same page — then point the home slot at it.
	newLoc, err := m.Insert(data, v.loc.Page)
	if err != nil {
		return err
	}
	if v.fwd {
		// Home already holds a stub: delete the old body, retarget stub.
		if err := m.deleteCell(v.loc); err != nil {
			return err
		}
		return m.patchStub(rid, newLoc)
	}
	// Shrink the home cell into a stub in place (records are always at
	// least RIDSize bytes, so this cannot fail for lack of space).
	var h visit
	if err := m.pin(&h, rid.Page, true); err != nil {
		return err
	}
	u := h.f.BeginUpdate()
	var stub [RIDSize]byte
	newLoc.Put(stub[:])
	if !h.sl.Update(int(rid.Slot), stub[:]) {
		h.f.CancelUpdate(u)
		h.done()
		return fmt.Errorf("records: cannot install forwarding stub at %s", rid)
	}
	// The stub bytes are already in place: log them even if the flag
	// cannot be set (it can: Update just found the slot live), so the
	// log never lags the page.
	err = h.sl.SetFlag(int(rid.Slot), true)
	if uerr := h.f.EndUpdate(u); err == nil {
		err = uerr
	}
	return m.end(&h, true, err)
}

// patchStub rewrites the stub at home to point at newLoc.
func (m *Manager) patchStub(home, newLoc RID) error {
	var v visit
	if err := m.pin(&v, home.Page, true); err != nil {
		return err
	}
	defer v.done()
	cell, err := v.sl.CellSpan(int(home.Slot))
	if err != nil {
		return err
	}
	if cell.Len != RIDSize {
		return fmt.Errorf("%w: stub at %s has %d bytes", ErrCorrupt, home, cell.Len)
	}
	u := v.f.BeginUpdate(cell)
	newLoc.Put(v.f.Data()[cell.Off:])
	return v.f.EndUpdate(u)
}

// deleteCell removes one physical cell and updates the inventory.
func (m *Manager) deleteCell(loc RID) error {
	var v visit
	if err := m.pin(&v, loc.Page, true); err != nil {
		return err
	}
	v.loc = loc
	return m.deleteIn(&v)
}

// deleteIn removes cell v.loc in write visit v, ends the visit and
// updates the inventory.
func (m *Manager) deleteIn(v *visit) error {
	u := v.f.BeginUpdate()
	err := v.sl.Delete(int(v.loc.Slot))
	if err != nil {
		v.f.CancelUpdate(u)
	} else {
		err = v.f.EndUpdate(u)
	}
	return m.end(v, true, err)
}

// Delete removes the record, including its forwarding stub if any: the
// body inside the body's visit, then the stub in a visit of the home
// page of its own.
func (m *Manager) Delete(rid RID) error {
	var v visit
	if err := m.body(&v, rid, true); err != nil {
		return err
	}
	if err := m.deleteIn(&v); err != nil || !v.fwd {
		return err
	}
	return m.deleteCell(rid)
}

// Patch overwrites len(data) bytes of the record body in place at the
// given offset. The record length is unchanged. Used for cheap parent-
// pointer fixups after splits.
func (m *Manager) Patch(rid RID, off int, data []byte) error {
	var v visit
	if err := m.body(&v, rid, true); err != nil {
		return err
	}
	defer v.done()
	if off < 0 || off+len(data) > v.cell.Len {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrBadOffset, off, off+len(data), v.cell.Len)
	}
	u := v.f.BeginUpdate(buffer.Window{Off: v.cell.Off + off, Len: len(data)})
	copy(v.f.Data()[v.cell.Off+off:], data)
	return v.f.EndUpdate(u)
}

// PageFreeBytes returns the exact free byte count of a data page. The
// tree manager compares candidate insertion pages with it ("wherever
// there is more free space", §3.3).
func (m *Manager) PageFreeBytes(p pagedev.PageNo) (int, error) {
	var v visit
	if err := m.pin(&v, p, false); err != nil {
		return 0, err
	}
	defer v.done()
	return v.sl.FreeBytes(), nil
}
