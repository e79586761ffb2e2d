// Package segment manages a linear collection of equal-sized pages on a
// device ("a memory space divided into segments, which are a linear
// collection of equal-sized pages", paper §2.1) together with a free-space
// inventory (FSI).
//
// Layout: page 0 is the segment header (format version, page size, and a
// small table of root pointers used by upper layers for the catalog and
// dictionary). FSI pages are interleaved at fixed intervals: each FSI page
// holds one byte of encoded free space for each of the K pages that follow
// it, so the record manager can find a page with enough room for a record
// without touching data pages. All remaining pages are slotted record
// pages, formatted on allocation.
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"natix/internal/buffer"
	"natix/internal/pagedev"
	"natix/internal/pageformat"
)

// NumRoots is the number of 8-byte root pointers stored in the header.
type rootSlot = int

// Root pointer slots reserved in the segment header.
const (
	RootCatalog   = 0 // document catalog (package docstore)
	RootDict      = 1 // label dictionary (package dict)
	RootPathIndex = 2 // path-index catalog (package pathindex)
	RootSpare3    = 3
	NumRoots      = 4
)

// Header page layout (after the 16-byte common header).
const (
	offVersion  = 16
	offPageSize = 20
	offRoots    = 24

	// FormatVersion 4: every record is in record format 5 (package
	// noderep). Version 3 holds records of format 4, and version 2 — the
	// first with the common page header's LSN field for write-ahead
	// logging; version 1 had an 8-byte common header — of formats 1 to 3:
	// Open accepts both, and the store rewrites those records
	// (docstore.Store.Upgrade) and then the version (FinishUpgrade) before
	// anything reads a record. An older build refuses a version 4 segment:
	// a downgrade is unsupported.
	FormatVersion      = 4
	upgradeableVersion = 2 // the oldest
)

// maxScanGroups bounds how many free-space-inventory groups FindSpace
// examines per allocation, and lookBehindPages is how far behind the
// hint page the scan starts.
const (
	maxScanGroups   = 4
	lookBehindPages = 32
)

// Errors.
var (
	ErrBadHeader   = errors.New("segment: invalid segment header")
	ErrBadPageSize = errors.New("segment: page size mismatch")
	ErrNotDataPage = errors.New("segment: not a data page")
)

// Segment provides page allocation and free-space lookup over a buffer
// pool. Read-side methods (RootRID, FreeHint, TotalBytes, NumPages) are
// safe for concurrent callers; page access holds frame latches. The
// allocation path (FindSpace, NotifyFree, SetRootRID) must be driven by
// a single mutator at a time — package docstore's writer lock provides
// that.
type Segment struct {
	pool     *buffer.Pool
	pageSize int
	fsiCap   int // pages covered per FSI page
	version  int // the header's format version

	// allocMu serializes device growth: parallel bulk-import shards each
	// drive their own batch writer, so AllocDataPage must be safe across
	// them even though the rest of the allocation path stays single-
	// mutator. (NotifyFree is already serialized by the FSI page's frame
	// latch.)
	allocMu sync.Mutex
}

// fsiCapacity returns how many page entries fit on one FSI page.
func fsiCapacity(pageSize int) int {
	return pageSize - pageformat.CommonHeaderSize
}

// encScale returns the byte granularity of one FSI unit for a page size.
func encScale(pageSize int) int {
	return (pageSize + 254) / 255
}

// maxFree is the free-byte count of a completely empty slotted page.
func maxFree(pageSize int) int {
	return pageformat.MaxCellSize(pageSize) + pageformat.SlotOverhead
}

// encodeFree conservatively encodes freeBytes into a single byte
// (rounding down, so the decoded value never overstates free space).
// The value 255 is reserved for "entirely empty": without it, rounding
// would make empty pages look a few bytes too small for max-size records
// and they could never be reused.
func encodeFree(freeBytes, pageSize int) byte {
	if freeBytes >= maxFree(pageSize) {
		return 255
	}
	v := freeBytes / encScale(pageSize)
	if v > 254 {
		v = 254
	}
	if v < 0 {
		v = 0
	}
	return byte(v)
}

// decodeFree returns the lower bound on free bytes for an encoded entry.
func decodeFree(enc byte, pageSize int) int {
	if enc == 255 {
		return maxFree(pageSize)
	}
	return int(enc) * encScale(pageSize)
}

// Create formats a fresh segment (header page) over the pool's device.
// The device must be empty.
func Create(pool *buffer.Pool) (*Segment, error) {
	dev := pool.Device()
	if dev.NumPages() != 0 {
		return nil, errors.New("segment: Create on non-empty device")
	}
	if err := dev.Grow(1); err != nil {
		return nil, err
	}
	f, err := pool.GetNew(0)
	if err != nil {
		return nil, err
	}
	defer f.Release()
	f.Latch()
	defer f.Unlatch()
	u := f.BeginUpdate()
	b := f.Data()
	pageformat.InitCommon(b, pageformat.TypeHeader)
	binary.LittleEndian.PutUint32(b[offVersion:], FormatVersion)
	binary.LittleEndian.PutUint32(b[offPageSize:], uint32(dev.PageSize()))
	for i := 0; i < NumRoots; i++ {
		binary.LittleEndian.PutUint64(b[offRoots+8*i:], 0)
	}
	if err := f.EndUpdate(u); err != nil {
		return nil, err
	}
	return &Segment{pool: pool, pageSize: dev.PageSize(), fsiCap: fsiCapacity(dev.PageSize()), version: FormatVersion}, nil
}

// Open attaches to an existing segment, validating its header.
func Open(pool *buffer.Pool) (*Segment, error) {
	dev := pool.Device()
	if dev.NumPages() == 0 {
		return nil, fmt.Errorf("%w: empty device", ErrBadHeader)
	}
	f, err := pool.Get(0)
	if err != nil {
		return nil, err
	}
	defer f.Release()
	f.RLatch()
	defer f.RUnlatch()
	b := f.Data()
	if pageformat.TypeOf(b) != pageformat.TypeHeader {
		return nil, ErrBadHeader
	}
	v := int(binary.LittleEndian.Uint32(b[offVersion:]))
	if v < upgradeableVersion || v > FormatVersion {
		return nil, fmt.Errorf("%w: format version %d", ErrBadHeader, v)
	}
	if ps := int(binary.LittleEndian.Uint32(b[offPageSize:])); ps != dev.PageSize() {
		return nil, fmt.Errorf("%w: segment %d, device %d", ErrBadPageSize, ps, dev.PageSize())
	}
	return &Segment{pool: pool, pageSize: dev.PageSize(), fsiCap: fsiCapacity(dev.PageSize()), version: v}, nil
}

// FormatVersion returns the segment's format version: FormatVersion, or
// 2 or 3 for a segment whose records have not been upgraded yet.
func (s *Segment) FormatVersion() int { return s.version }

// FinishUpgrade sets the segment header's format version to
// FormatVersion, once every record is in record format 5. The caller
// makes that durable before writing the header (a checkpoint), so a
// version 4 header never stands over an older record.
func (s *Segment) FinishUpgrade() error {
	f, err := s.pool.Get(0)
	if err != nil {
		return err
	}
	defer f.Release()
	f.Latch()
	defer f.Unlatch()
	u := f.BeginUpdate(buffer.Window{Off: offVersion, Len: 4})
	binary.LittleEndian.PutUint32(f.Data()[offVersion:], FormatVersion)
	if err := f.EndUpdate(u); err != nil {
		return err
	}
	s.version = FormatVersion
	return nil
}

// PageSize returns the segment's page size.
func (s *Segment) PageSize() int { return s.pageSize }

// Pool returns the buffer pool the segment operates on.
func (s *Segment) Pool() *buffer.Pool { return s.pool }

// MaxRecordSize returns the largest record storable on one page — the
// "net page capacity" that triggers record splits in the tree manager.
func (s *Segment) MaxRecordSize() int { return pageformat.MaxCellSize(s.pageSize) }

// RootRID returns the raw 8-byte root pointer in the given header slot.
func (s *Segment) RootRID(slot rootSlot) (uint64, error) {
	if slot < 0 || slot >= NumRoots {
		return 0, fmt.Errorf("segment: root slot %d out of range", slot)
	}
	f, err := s.pool.Get(0)
	if err != nil {
		return 0, err
	}
	defer f.Release()
	f.RLatch()
	defer f.RUnlatch()
	return binary.LittleEndian.Uint64(f.Data()[offRoots+8*slot:]), nil
}

// SetRootRID stores a raw 8-byte root pointer in the given header slot.
func (s *Segment) SetRootRID(slot rootSlot, v uint64) error {
	if slot < 0 || slot >= NumRoots {
		return fmt.Errorf("segment: root slot %d out of range", slot)
	}
	f, err := s.pool.Get(0)
	if err != nil {
		return err
	}
	defer f.Release()
	f.Latch()
	defer f.Unlatch()
	u := f.BeginUpdate(buffer.Window{Off: offRoots + 8*int(slot), Len: 8})
	binary.LittleEndian.PutUint64(f.Data()[offRoots+8*slot:], v)
	return f.EndUpdate(u)
}

// IsFSIPage reports whether p is a free-space-inventory page.
func (s *Segment) IsFSIPage(p pagedev.PageNo) bool {
	if p == 0 {
		return false
	}
	return (uint64(p)-1)%uint64(s.fsiCap+1) == 0
}

// IsDataPage reports whether p is a record page.
func (s *Segment) IsDataPage(p pagedev.PageNo) bool {
	return p != 0 && !s.IsFSIPage(p)
}

// fsiLocation returns the FSI page covering data page p and the entry
// index of p within it.
func (s *Segment) fsiLocation(p pagedev.PageNo) (fsiPage pagedev.PageNo, entry int, err error) {
	if !s.IsDataPage(p) {
		return 0, 0, fmt.Errorf("%w: page %d", ErrNotDataPage, p)
	}
	group := (uint64(p) - 1) / uint64(s.fsiCap+1)
	fsiPage = pagedev.PageNo(1 + group*uint64(s.fsiCap+1))
	entry = int(uint64(p) - uint64(fsiPage) - 1)
	return fsiPage, entry, nil
}

// NotifyFree records the current free-byte count of data page p in the
// inventory. The record manager calls this after every page mutation.
func (s *Segment) NotifyFree(p pagedev.PageNo, freeBytes int) error {
	fsiPage, entry, err := s.fsiLocation(p)
	if err != nil {
		return err
	}
	f, err := s.pool.Get(fsiPage)
	if err != nil {
		return err
	}
	defer f.Release()
	f.Latch()
	defer f.Unlatch()
	enc := encodeFree(freeBytes, s.pageSize)
	b := f.Data()
	if b[pageformat.CommonHeaderSize+entry] == enc {
		return nil
	}
	u := f.BeginUpdate(buffer.Window{Off: pageformat.CommonHeaderSize + entry, Len: 1})
	b[pageformat.CommonHeaderSize+entry] = enc
	return f.EndUpdate(u)
}

// FreeHint returns the inventory's lower bound on free bytes for page p.
func (s *Segment) FreeHint(p pagedev.PageNo) (int, error) {
	fsiPage, entry, err := s.fsiLocation(p)
	if err != nil {
		return 0, err
	}
	f, err := s.pool.Get(fsiPage)
	if err != nil {
		return 0, err
	}
	defer f.Release()
	f.RLatch()
	defer f.RUnlatch()
	return decodeFree(f.Data()[pageformat.CommonHeaderSize+entry], s.pageSize), nil
}

// FindSpace returns a data page with at least need free bytes, preferring
// pages close to near ("store parent with children and sibling nodes on
// the same page if possible", §4.2). If no existing page qualifies, a new
// page is allocated and formatted. need must not exceed MaxRecordSize.
func (s *Segment) FindSpace(need int, near pagedev.PageNo) (pagedev.PageNo, error) {
	// A fresh page offers MaxRecordSize bytes of cell space plus one
	// directory slot; anything beyond that can never be satisfied.
	if need > s.MaxRecordSize()+pageformat.SlotOverhead {
		return 0, fmt.Errorf("segment: need %d exceeds page capacity %d", need, s.MaxRecordSize()+pageformat.SlotOverhead)
	}
	numPages := s.pool.Device().NumPages()

	// 1. The near page itself.
	if near != 0 && s.IsDataPage(near) && near < numPages {
		if free, err := s.FreeHint(near); err == nil && free >= need {
			return near, nil
		}
	}

	// 2. Scan the inventory forward from just behind the hint page.
	// Scanning whole groups from their start would back-fill distant
	// holes and scatter logically adjacent records across the disk;
	// starting at the hint (with a small look-behind) keeps allocation
	// marching forward so related records stay physically close ("store
	// parent with children and sibling nodes on the same page if
	// possible", §4.2), at the cost of leaving old distant holes to
	// deletions that carry their own nearby hints.
	groups := s.numGroups(numPages)
	startGroup := uint64(0)
	fromEntry := 0
	if near != 0 && near < numPages && s.IsDataPage(near) {
		startGroup = (uint64(near) - 1) / uint64(s.fsiCap+1)
		groupFSI := pagedev.PageNo(1 + startGroup*uint64(s.fsiCap+1))
		fromEntry = int(uint64(near)-uint64(groupFSI)-1) - lookBehindPages
		if fromEntry < 0 {
			fromEntry = 0
		}
	}
	hi := startGroup + maxScanGroups
	if hi > groups {
		hi = groups
	}
	for g := startGroup; g < hi; g++ {
		p, ok, err := s.scanGroup(g, need, numPages, fromEntry)
		if err != nil {
			return 0, err
		}
		if ok {
			return p, nil
		}
		fromEntry = 0 // later groups scan from their beginning
	}

	// 3. Allocate a fresh page.
	return s.allocPage()
}

// numGroups returns how many FSI groups exist for the current size.
func (s *Segment) numGroups(numPages pagedev.PageNo) uint64 {
	if numPages <= 1 {
		return 0
	}
	return (uint64(numPages) - 2 + uint64(s.fsiCap+1)) / uint64(s.fsiCap+1)
}

// scanGroup looks for a page with enough space within one FSI group,
// starting at the given entry index.
func (s *Segment) scanGroup(group uint64, need int, numPages pagedev.PageNo, fromEntry int) (pagedev.PageNo, bool, error) {
	fsiPage := pagedev.PageNo(1 + group*uint64(s.fsiCap+1))
	if fsiPage >= numPages {
		return 0, false, nil
	}
	f, err := s.pool.Get(fsiPage)
	if err != nil {
		return 0, false, err
	}
	defer f.Release()
	f.RLatch()
	defer f.RUnlatch()
	b := f.Data()
	for i := fromEntry; i < s.fsiCap; i++ {
		p := fsiPage + 1 + pagedev.PageNo(i)
		if p >= numPages {
			break
		}
		if decodeFree(b[pageformat.CommonHeaderSize+i], s.pageSize) >= need {
			return p, true, nil
		}
	}
	return 0, false, nil
}

// allocPage grows the device by one data page (creating a new FSI page
// first when crossing a group boundary), formats it as a slotted page and
// registers its free space.
func (s *Segment) allocPage() (pagedev.PageNo, error) {
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	dev := s.pool.Device()
	for {
		p := dev.NumPages()
		if err := dev.Grow(p + 1); err != nil {
			return 0, err
		}
		if s.IsFSIPage(p) {
			f, err := s.pool.GetNew(p)
			if err != nil {
				return 0, err
			}
			f.Latch()
			u := f.BeginUpdate()
			pageformat.InitCommon(f.Data(), pageformat.TypeFSI)
			err = f.EndUpdate(u)
			f.Unlatch()
			f.Release()
			if err != nil {
				return 0, err
			}
			continue // the page after the FSI page is the data page
		}
		f, err := s.pool.GetNew(p)
		if err != nil {
			return 0, err
		}
		f.Latch()
		// Formatting a fresh data page is deliberately not logged: the
		// page's first real content (a record insert, or the batch
		// writer's packed image) logs a full image that covers the
		// formatting, so bulk-loaded pages cost one log record, not
		// two. If a crash intervenes, the page is unreferenced and
		// recovery's undo truncates it away with the rest of the
		// operation's allocations.
		sl := pageformat.FormatSlotted(f.Data())
		free := sl.FreeBytes()
		f.MarkDirty()
		f.Unlatch()
		f.Release()
		if err := s.NotifyFree(p, free); err != nil {
			return 0, err
		}
		return p, nil
	}
}

// AllocDataPage grows the segment by one freshly formatted, empty data
// page and returns its number. Callers that pack records sequentially
// (the bulk loader's batch writer) use it to get pages whose slot
// numbering they fully control; everyone else goes through FindSpace.
// Like the rest of the allocation path it must be driven by a single
// mutator at a time.
func (s *Segment) AllocDataPage() (pagedev.PageNo, error) {
	return s.allocPage()
}

// TotalBytes returns the total on-disk size of the segment in bytes —
// the paper's Figure 14 space metric.
func (s *Segment) TotalBytes() int64 {
	return int64(s.pool.Device().NumPages()) * int64(s.pageSize)
}

// NumPages returns the total number of pages (header + FSI + data).
func (s *Segment) NumPages() pagedev.PageNo {
	return s.pool.Device().NumPages()
}

// ForEachDataPage calls fn for every allocated data page, stopping on the
// first error.
func (s *Segment) ForEachDataPage(fn func(p pagedev.PageNo) error) error {
	n := s.pool.Device().NumPages()
	for p := pagedev.PageNo(1); p < n; p++ {
		if !s.IsDataPage(p) {
			continue
		}
		if err := fn(p); err != nil {
			return err
		}
	}
	return nil
}

// RebuildFSIPage reconstructs one free-space-inventory page from the
// ground truth: the slot directories of the data pages it covers. The
// integrity scrubber calls it when an FSI page fails verification and
// the log holds no image of it — unlike record pages, inventory pages
// are fully derivable, so "unrepairable" never applies to them. Pages
// that cannot be read (corrupt themselves, or never yet written) are
// recorded as having no free space, which fences them from allocation
// without affecting existing records.
//
// The rebuilt page is installed through the pool's restore path —
// straight to the device, no log record: the content is derived state,
// and a crash before the write simply leaves the page for the next
// scrub. The page must not be resident; the single-mutator rule for
// the allocation path applies.
func (s *Segment) RebuildFSIPage(fsiPage pagedev.PageNo) error {
	if !s.IsFSIPage(fsiPage) {
		return fmt.Errorf("segment: page %d is not an FSI page", fsiPage)
	}
	buf := make([]byte, s.pageSize)
	pageformat.InitCommon(buf, pageformat.TypeFSI)
	numPages := s.pool.Device().NumPages()
	for i := 0; i < s.fsiCap; i++ {
		p := fsiPage + 1 + pagedev.PageNo(i)
		if p >= numPages {
			break
		}
		free := 0
		if f, err := s.pool.Get(p); err == nil {
			f.RLatch()
			if sl, err := pageformat.AsSlotted(f.Data()); err == nil {
				free = sl.FreeBytes()
			}
			f.RUnlatch()
			f.Release()
		}
		buf[pageformat.CommonHeaderSize+i] = encodeFree(free, s.pageSize)
	}
	return s.pool.Restore(fsiPage, buf)
}
