// Package pageformat defines the on-disk layout of NATIX pages.
//
// Every page starts with a common 16-byte header (magic, page type,
// flags, CRC-32 checksum, and the page LSN — the log sequence number of
// the last write-ahead-log record applied to the page, which the buffer
// manager uses to enforce the WAL rule and restart recovery uses to
// recognize already-applied records). Three page types exist:
//
//   - Header: page 0 of a segment, holding segment metadata.
//   - FSI: free-space-inventory pages, maintained by package segment.
//   - Slotted: pages holding records, "organized as slotted pages,
//     records are identified by a pair (pageid, slot)" (paper §2.1).
//
// The slotted layout places cells bottom-up after the page header and the
// slot directory top-down from the end of the page. Each 4-byte slot holds
// the cell offset and its length; a deleted slot has offset 0 and may be
// reused. The high bit of the length word is a per-cell flag used by the
// record manager to mark forwarding stubs.
package pageformat

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// PageType distinguishes the interpretations of a page.
type PageType uint8

// Page types.
const (
	TypeInvalid PageType = iota
	TypeHeader           // segment header (page 0)
	TypeFSI              // free-space inventory
	TypeSlotted          // record page
	TypePlain            // uninterpreted page ("plain page" for indexes etc.)
)

// Layout constants for the common header.
const (
	Magic = 0x4E58 // "NX"

	offMagic    = 0
	offType     = 2
	offFlags    = 3
	offChecksum = 4
	offLSN      = 8

	// CommonHeaderSize is the size of the header shared by all page types.
	CommonHeaderSize = 16
)

// Layout constants for the slotted page header (follows the common header).
const (
	offSlotCount = 16
	offCellEnd   = 18
	offFrag      = 20
	offReserved  = 22

	slottedHeaderSize = 24
	slotSize          = 4

	// SlotOverhead is the directory cost of one cell, exported so callers
	// can size free-space requests that may need a fresh slot.
	SlotOverhead = slotSize

	lenMask     = 0x7FFF
	flagBitMask = 0x8000
)

// CellFlag is a single per-cell flag bit, exposed to the record manager.
type CellFlag bool

// Errors returned by this package.
var (
	ErrNotSlotted  = errors.New("pageformat: page is not a slotted page")
	ErrBadMagic    = errors.New("pageformat: bad page magic")
	ErrBadChecksum = errors.New("pageformat: page checksum mismatch")
	ErrNoSuchSlot  = errors.New("pageformat: no such slot")
	ErrDeadSlot    = errors.New("pageformat: slot is deleted")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// InitCommon writes the common header into b, typing the page.
func InitCommon(b []byte, t PageType) {
	binary.LittleEndian.PutUint16(b[offMagic:], Magic)
	b[offType] = byte(t)
	b[offFlags] = 0
	binary.LittleEndian.PutUint32(b[offChecksum:], 0)
	binary.LittleEndian.PutUint64(b[offLSN:], 0)
}

// SetPageLSN stamps the page LSN. Called by the buffer manager when a
// logged update completes and by recovery when it applies log records.
func SetPageLSN(b []byte, lsn uint64) {
	binary.LittleEndian.PutUint64(b[offLSN:], lsn)
}

// TypeOf returns the page type recorded in b's common header, or
// TypeInvalid if the magic does not match (e.g. a never-written page).
func TypeOf(b []byte) PageType {
	if len(b) < CommonHeaderSize || binary.LittleEndian.Uint16(b[offMagic:]) != Magic {
		return TypeInvalid
	}
	return PageType(b[offType])
}

// UpdateChecksum computes and stores the CRC-32C of the page (with the
// checksum field itself zeroed). Called by the buffer manager on flush.
func UpdateChecksum(b []byte) {
	binary.LittleEndian.PutUint32(b[offChecksum:], 0)
	sum := crc32.Checksum(b, crcTable)
	binary.LittleEndian.PutUint32(b[offChecksum:], sum)
}

// VerifyChecksum checks the stored CRC-32C. Pages that were never written
// (invalid magic) are accepted; the caller decides how to interpret them.
func VerifyChecksum(b []byte) error {
	if TypeOf(b) == TypeInvalid {
		return nil
	}
	stored := binary.LittleEndian.Uint32(b[offChecksum:])
	binary.LittleEndian.PutUint32(b[offChecksum:], 0)
	sum := crc32.Checksum(b, crcTable)
	binary.LittleEndian.PutUint32(b[offChecksum:], stored)
	if sum != stored {
		return fmt.Errorf("%w: stored %#x computed %#x", ErrBadChecksum, stored, sum)
	}
	return nil
}

// Slotted is a view over a slotted page image. It holds no state of its
// own; all mutations write through to the underlying byte slice.
type Slotted struct {
	b []byte
}

// FormatSlotted initializes b as an empty slotted page and returns a view.
func FormatSlotted(b []byte) Slotted {
	InitCommon(b, TypeSlotted)
	binary.LittleEndian.PutUint16(b[offSlotCount:], 0)
	binary.LittleEndian.PutUint16(b[offCellEnd:], slottedHeaderSize)
	binary.LittleEndian.PutUint16(b[offFrag:], 0)
	binary.LittleEndian.PutUint16(b[offReserved:], 0)
	return Slotted{b: b}
}

// AsSlotted returns a slotted view of b, validating the page type.
func AsSlotted(b []byte) (Slotted, error) {
	switch TypeOf(b) {
	case TypeSlotted:
		return Slotted{b: b}, nil
	case TypeInvalid:
		return Slotted{}, ErrBadMagic
	default:
		return Slotted{}, ErrNotSlotted
	}
}

// MaxCellSize returns the largest cell storable in a freshly formatted
// slotted page of the given size. This is the record manager's "net page
// capacity" (paper §3.2.2).
func MaxCellSize(pageSize int) int {
	return pageSize - slottedHeaderSize - slotSize
}

func (s Slotted) slotCount() int {
	return int(binary.LittleEndian.Uint16(s.b[offSlotCount:]))
}

func (s Slotted) cellEnd() int {
	return int(binary.LittleEndian.Uint16(s.b[offCellEnd:]))
}

func (s Slotted) frag() int {
	return int(binary.LittleEndian.Uint16(s.b[offFrag:]))
}

func (s Slotted) setSlotCount(n int) {
	binary.LittleEndian.PutUint16(s.b[offSlotCount:], uint16(n))
}

func (s Slotted) setCellEnd(n int) {
	binary.LittleEndian.PutUint16(s.b[offCellEnd:], uint16(n))
}

func (s Slotted) setFrag(n int) {
	binary.LittleEndian.PutUint16(s.b[offFrag:], uint16(n))
}

// slotPos returns the byte position of slot i's directory entry.
func (s Slotted) slotPos(i int) int {
	return len(s.b) - slotSize*(i+1)
}

func (s Slotted) slot(i int) (off, length int, flag bool) {
	p := s.slotPos(i)
	off = int(binary.LittleEndian.Uint16(s.b[p:]))
	lw := binary.LittleEndian.Uint16(s.b[p+2:])
	return off, int(lw & lenMask), lw&flagBitMask != 0
}

func (s Slotted) setSlot(i, off, length int, flag bool) {
	p := s.slotPos(i)
	binary.LittleEndian.PutUint16(s.b[p:], uint16(off))
	lw := uint16(length) & lenMask
	if flag {
		lw |= flagBitMask
	}
	binary.LittleEndian.PutUint16(s.b[p+2:], lw)
}

// SlotCount returns the number of directory entries, including dead slots.
func (s Slotted) SlotCount() int { return s.slotCount() }

// LiveCells returns the number of non-deleted cells.
func (s Slotted) LiveCells() int {
	n := 0
	for i := 0; i < s.slotCount(); i++ {
		if off, _, _ := s.slot(i); off != 0 {
			n++
		}
	}
	return n
}

// contiguous returns the bytes available between the cell area and the
// slot directory.
func (s Slotted) contiguous() int {
	return len(s.b) - slotSize*s.slotCount() - s.cellEnd()
}

// FreeBytes returns the total reusable bytes on the page: the contiguous
// gap plus fragmented space reclaimable by compaction. It does not include
// slot-directory overhead for future inserts.
func (s Slotted) FreeBytes() int {
	return s.contiguous() + s.frag()
}

// freeSlot returns the index of a reusable dead slot, or -1.
func (s Slotted) freeSlot() int {
	for i := 0; i < s.slotCount(); i++ {
		if off, _, _ := s.slot(i); off == 0 {
			return i
		}
	}
	return -1
}

// CanInsert reports whether a cell of n bytes fits, accounting for a new
// directory entry if no dead slot is available.
func (s Slotted) CanInsert(n int) bool {
	if n <= 0 || n > lenMask {
		return false
	}
	need := n
	if s.freeSlot() < 0 {
		need += slotSize
	}
	return s.FreeBytes() >= need
}

// Insert stores data in a new cell and returns its slot number. It fails
// (ok=false) if the page cannot hold the cell.
func (s Slotted) Insert(data []byte) (slot int, ok bool) {
	if !s.CanInsert(len(data)) {
		return 0, false
	}
	slot = s.freeSlot()
	if slot < 0 {
		// Extending the directory steals 4 bytes from the top of the cell
		// area; compact first if a live cell currently occupies them.
		if s.contiguous() < slotSize {
			s.compact()
		}
		slot = s.slotCount()
		s.setSlotCount(slot + 1)
		// The new directory entry may overlap former (dead) cell bytes;
		// mark it dead before anything else walks the directory.
		s.setSlot(slot, 0, 0, false)
	}
	if s.contiguous() < len(data) {
		s.compact()
	}
	off := s.cellEnd()
	copy(s.b[off:], data)
	s.setCellEnd(off + len(data))
	s.setSlot(slot, off, len(data), false)
	return slot, true
}

// Cell returns a read-only view of the cell in the given slot. The slice
// aliases the page image; callers must copy before retaining it.
func (s Slotted) Cell(slot int) ([]byte, error) {
	sp, err := s.CellSpan(slot)
	if err != nil {
		return nil, err
	}
	return s.b[sp.Off : sp.Off+sp.Len : sp.Off+sp.Len], nil
}

// CellSpan returns where on the page the cell in the given slot lies.
func (s Slotted) CellSpan(slot int) (Span, error) {
	if slot < 0 || slot >= s.slotCount() {
		return Span{}, fmt.Errorf("%w: %d of %d", ErrNoSuchSlot, slot, s.slotCount())
	}
	off, length, _ := s.slot(slot)
	if off == 0 {
		return Span{}, fmt.Errorf("%w: %d", ErrDeadSlot, slot)
	}
	return Span{Off: off, Len: length}, nil
}

// Flag returns the per-cell flag bit of the given slot.
func (s Slotted) Flag(slot int) (bool, error) {
	if slot < 0 || slot >= s.slotCount() {
		return false, fmt.Errorf("%w: %d of %d", ErrNoSuchSlot, slot, s.slotCount())
	}
	off, _, fl := s.slot(slot)
	if off == 0 {
		return false, fmt.Errorf("%w: %d", ErrDeadSlot, slot)
	}
	return fl, nil
}

// SetFlag sets the per-cell flag bit of the given slot.
func (s Slotted) SetFlag(slot int, flag bool) error {
	if slot < 0 || slot >= s.slotCount() {
		return fmt.Errorf("%w: %d of %d", ErrNoSuchSlot, slot, s.slotCount())
	}
	off, length, _ := s.slot(slot)
	if off == 0 {
		return fmt.Errorf("%w: %d", ErrDeadSlot, slot)
	}
	s.setSlot(slot, off, length, flag)
	return nil
}

// CanUpdate reports whether the cell in slot can be resized to n bytes
// without moving to another page.
func (s Slotted) CanUpdate(slot int, n int) bool {
	if slot < 0 || slot >= s.slotCount() || n <= 0 || n > lenMask {
		return false
	}
	off, length, _ := s.slot(slot)
	if off == 0 {
		return false
	}
	if n <= length {
		return true
	}
	// The old cell's bytes become reclaimable.
	return s.FreeBytes()+length >= n
}

// Update replaces the contents of an existing cell, growing or shrinking
// it. The flag bit is preserved. It fails (ok=false) if the new size does
// not fit on the page.
func (s Slotted) Update(slot int, data []byte) bool {
	return s.Splice(slot, data, 0, nil)
}

// Span is a byte range of a page image.
type Span struct{ Off, Len int }

// headerSpan covers the slotted-header fields an update of a cell can
// change: the end of the cell area and the fragmented byte count.
var headerSpan = Span{Off: offCellEnd, Len: offFrag + 2 - offCellEnd}

// spliceMode is how a cell takes new contents of n bytes.
type spliceMode int

const (
	spliceNoFit    spliceMode = iota // the page cannot hold n bytes
	spliceInPlace                    // same offset: it shrinks, or borders the free area and grows into it
	spliceRelocate                   // retired, rewritten whole at the end of the cell area
	spliceCompact                    // retired, the page compacted, then rewritten whole
)

func (s Slotted) spliceMode(slot, n int) spliceMode {
	if !s.CanUpdate(slot, n) {
		return spliceNoFit
	}
	off, length, _ := s.slot(slot)
	switch {
	case n <= length, off+length == s.cellEnd() && s.contiguous() >= n-length:
		return spliceInPlace
	case s.contiguous() >= n:
		return spliceRelocate
	default:
		return spliceCompact
	}
}

// Splice is Update for a caller that knows where data differs from the
// cell's current contents: from byte from on, and before that only in
// the two-byte fields at the offsets in fields. A cell that shrinks, or
// borders the free area with room to grow, is edited where it lies —
// only those bytes are written; otherwise the old cell is retired and
// data placed whole behind the other cells, after a compaction if the
// contiguous gap is too small.
func (s Slotted) Splice(slot int, data []byte, from int, fields []int) bool {
	mode := s.spliceMode(slot, len(data))
	if mode == spliceNoFit {
		return false
	}
	off, length, flag := s.slot(slot)
	if mode == spliceInPlace {
		for _, f := range fields {
			copy(s.b[off+f:off+f+2], data[f:])
		}
		copy(s.b[off+from:], data[from:])
		if off+length == s.cellEnd() {
			s.setCellEnd(off + len(data))
		} else {
			s.setFrag(s.frag() + length - len(data))
		}
		s.setSlot(slot, off, len(data), flag)
		return true
	}
	// Retire the old cell, then place the new bytes.
	s.setFrag(s.frag() + length)
	s.setSlot(slot, 0, 0, false)
	if mode == spliceCompact {
		s.compact()
	}
	noff := s.cellEnd()
	copy(s.b[noff:], data)
	s.setCellEnd(noff + len(data))
	s.setSlot(slot, noff, len(data), flag)
	return true
}

// SpliceSpans appends to buf the byte spans of the page that
// Splice(slot, data, from, fields) with len(data) == n would change, for
// the caller to declare before it mutates the page. No spans means the
// whole page (it is compacted on the way); ok is false when the cell
// cannot take n bytes on this page.
func (s Slotted) SpliceSpans(buf []Span, slot, n, from int, fields []int) (spans []Span, ok bool) {
	mode := s.spliceMode(slot, n)
	if mode == spliceNoFit || mode == spliceCompact {
		return buf, mode == spliceCompact
	}
	if mode == spliceRelocate {
		return append(s.smallSpans(buf, slot, nil), Span{Off: s.cellEnd(), Len: n}), true
	}
	off, _, _ := s.slot(slot)
	return append(s.smallSpans(buf, slot, fields), Span{Off: off + from, Len: n - from}), true
}

// smallSpans appends the spans a Splice of the cell in slot changes
// beside the body it writes: the header fields, the slot entry and the
// two-byte fields inside the cell.
func (s Slotted) smallSpans(buf []Span, slot int, fields []int) []Span {
	off, _, _ := s.slot(slot)
	buf = append(buf, headerSpan, Span{Off: s.slotPos(slot), Len: slotSize})
	for _, f := range fields {
		buf = append(buf, Span{Off: off + f, Len: 2})
	}
	return buf
}

// Shift is an in-place Splice seen as a move instead of a rewrite:
// |Delta| bytes inserted at (Delta > 0) or removed from (Delta < 0)
// page offset Off, the Tail bytes of the cell behind that point moving
// with them unchanged. It is what a node edit does to its record, and
// what the log can say in a few bytes (wal.Shift).
type Shift struct{ Off, Tail, Delta int }

// Body returns the span of the page the shift writes: the inserted
// bytes, if any, and the moved tail.
func (sh Shift) Body() Span { return Span{Off: sh.Off, Len: sh.Tail + max(sh.Delta, 0)} }

// Destroyed returns the span of the page whose bytes the shift
// overwrites for good, |Delta| of them: the ones it removes, or the
// ones behind the tail that an insert moves it onto. Undoing the shift
// needs them back.
func (sh Shift) Destroyed() Span {
	if sh.Delta < 0 {
		return Span{Off: sh.Off, Len: -sh.Delta}
	}
	return Span{Off: sh.Off + sh.Tail, Len: sh.Delta}
}

// SpliceShift reports whether Splice(slot, data, from, fields) is a
// shift: the cell is edited where it lies, it changes size, and behind
// the inserted or removed bytes data carries the cell's old tail byte
// for byte (compared here — a caller's say-so is not enough for a
// record that replay applies blind). It appends to buf the small spans
// the splice changes beside the shift: everything SpliceSpans declares
// except the body.
func (s Slotted) SpliceShift(buf []Span, slot int, data []byte, from int, fields []int) (spans []Span, sh Shift, ok bool) {
	if s.spliceMode(slot, len(data)) != spliceInPlace {
		return buf, Shift{}, false
	}
	off, length, _ := s.slot(slot)
	delta := len(data) - length
	if delta == 0 || from < 0 || from > min(length, len(data)) {
		return buf, Shift{}, false
	}
	for _, f := range fields {
		if f < 0 || f+2 > from {
			return buf, Shift{}, false // a field inside the moved bytes
		}
	}
	tail := s.b[off+from+max(-delta, 0) : off+length]
	if !bytes.Equal(tail, data[from+max(delta, 0):]) {
		return buf, Shift{}, false
	}
	return s.smallSpans(buf, slot, fields), Shift{Off: off + from, Tail: len(tail), Delta: delta}, true
}

// Delete removes the cell in the given slot. The slot becomes reusable;
// trailing dead slots are trimmed from the directory.
func (s Slotted) Delete(slot int) error {
	if slot < 0 || slot >= s.slotCount() {
		return fmt.Errorf("%w: %d of %d", ErrNoSuchSlot, slot, s.slotCount())
	}
	off, length, _ := s.slot(slot)
	if off == 0 {
		return fmt.Errorf("%w: %d", ErrDeadSlot, slot)
	}
	s.setSlot(slot, 0, 0, false)
	s.setFrag(s.frag() + length)
	// Trim trailing dead slots so their directory space is reclaimed.
	n := s.slotCount()
	for n > 0 {
		if off, _, _ := s.slot(n - 1); off != 0 {
			break
		}
		n--
	}
	s.setSlotCount(n)
	return nil
}

// compact rewrites the cell area so all live cells are contiguous,
// eliminating fragmentation. Slot numbers are preserved.
func (s Slotted) compact() {
	type ent struct{ slot, off, length int }
	var live []ent
	for i := 0; i < s.slotCount(); i++ {
		if off, length, _ := s.slot(i); off != 0 {
			live = append(live, ent{i, off, length})
		}
	}
	// Move cells in ascending offset order so copies never overlap
	// destructively (destination is always <= source).
	for i := 1; i < len(live); i++ {
		for j := i; j > 0 && live[j].off < live[j-1].off; j-- {
			live[j], live[j-1] = live[j-1], live[j]
		}
	}
	pos := slottedHeaderSize
	for _, e := range live {
		if e.off != pos {
			copy(s.b[pos:pos+e.length], s.b[e.off:e.off+e.length])
			_, _, flag := s.slot(e.slot)
			s.setSlot(e.slot, pos, e.length, flag)
		}
		pos += e.length
	}
	s.setCellEnd(pos)
	s.setFrag(0)
}

// Slots returns the slot numbers of all live cells in ascending order.
func (s Slotted) Slots() []int {
	var out []int
	for i := 0; i < s.slotCount(); i++ {
		if off, _, _ := s.slot(i); off != 0 {
			out = append(out, i)
		}
	}
	return out
}

// UsedBytes returns the bytes consumed on the page: header, live cells and
// the slot directory. len(page) - UsedBytes() - frag == contiguous free.
func (s Slotted) UsedBytes() int {
	used := slottedHeaderSize + slotSize*s.slotCount()
	for i := 0; i < s.slotCount(); i++ {
		if off, length, _ := s.slot(i); off != 0 {
			used += length
		}
	}
	return used
}
