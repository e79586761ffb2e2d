// Package pagedev provides page-granularity block devices for the NATIX
// storage manager.
//
// Three implementations are provided:
//
//   - Mem: an in-memory device, used for tests and as the backing store of
//     the simulated disk.
//   - File: a file-backed device using positional reads and writes.
//   - SimDisk: a wrapper that replays every page access through a
//     seek/rotation/transfer cost model of a late-1990s SCSI disk. The
//     paper's measurements (Pentium-II 333, IBM DCAS-34330W, no OS
//     buffering) are I/O bound; the simulated clock reproduces their shape
//     on modern hardware where a page cache would otherwise hide locality.
//
// A device stores fixed-size pages addressed by a PageNo. Page numbers are
// dense: Grow extends the device, and reads of never-written pages return
// zero bytes.
package pagedev

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// PageNo identifies a page within a device. On disk, page numbers are
// stored in 48 bits (see the 8-byte RID encoding in package records).
type PageNo uint64

// MaxPageNo is the largest addressable page (48-bit page numbers).
const MaxPageNo PageNo = 1<<48 - 1

// Common device errors.
var (
	ErrOutOfRange = errors.New("pagedev: page number out of range")
	ErrClosed     = errors.New("pagedev: device is closed")
	ErrBadSize    = errors.New("pagedev: buffer size does not match page size")
)

// MinPageSize and MaxPageSize bound the supported page sizes. The paper
// evaluates pages between 2K and 32K; 32K is also the NATIX maximum
// ("Pages can be as large as 32K").
const (
	MinPageSize = 512
	MaxPageSize = 32 * 1024
)

// ValidPageSize reports whether s is a supported page size: a power of two
// in [MinPageSize, MaxPageSize].
func ValidPageSize(s int) bool {
	return s >= MinPageSize && s <= MaxPageSize && s&(s-1) == 0
}

// Device is a fixed-page-size block device.
type Device interface {
	// PageSize returns the size of every page in bytes.
	PageSize() int
	// NumPages returns the number of allocated pages.
	NumPages() PageNo
	// Read fills buf (which must be exactly PageSize bytes) with page p.
	Read(p PageNo, buf []byte) error
	// Write stores buf (exactly PageSize bytes) as page p. The page must
	// already be allocated via Grow.
	Write(p PageNo, buf []byte) error
	// Grow ensures the device holds at least n pages.
	Grow(n PageNo) error
	// Shrink truncates the device to at most n pages, discarding the
	// tail. Restart recovery and operation rollback use it to deallocate
	// pages an aborted operation grew the device by.
	Shrink(n PageNo) error
	// Sync flushes device buffers to stable storage where applicable.
	Sync() error
	// Close releases the device. Further operations fail with ErrClosed.
	Close() error
}

// Mem is an in-memory Device. It is safe for concurrent use.
type Mem struct {
	mu       sync.Mutex
	pageSize int
	pages    [][]byte
	closed   bool
}

// NewMem returns an empty in-memory device with the given page size.
func NewMem(pageSize int) (*Mem, error) {
	if !ValidPageSize(pageSize) {
		return nil, fmt.Errorf("pagedev: invalid page size %d", pageSize)
	}
	return &Mem{pageSize: pageSize}, nil
}

// PageSize implements Device.
func (m *Mem) PageSize() int { return m.pageSize }

// NumPages implements Device.
func (m *Mem) NumPages() PageNo {
	m.mu.Lock()
	defer m.mu.Unlock()
	return PageNo(len(m.pages))
}

// Read implements Device.
func (m *Mem) Read(p PageNo, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if len(buf) != m.pageSize {
		return ErrBadSize
	}
	if p >= PageNo(len(m.pages)) {
		return fmt.Errorf("%w: read page %d of %d", ErrOutOfRange, p, len(m.pages))
	}
	if m.pages[p] == nil {
		for i := range buf {
			buf[i] = 0
		}
		return nil
	}
	copy(buf, m.pages[p])
	return nil
}

// Write implements Device.
func (m *Mem) Write(p PageNo, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if len(buf) != m.pageSize {
		return ErrBadSize
	}
	if p >= PageNo(len(m.pages)) {
		return fmt.Errorf("%w: write page %d of %d", ErrOutOfRange, p, len(m.pages))
	}
	if m.pages[p] == nil {
		m.pages[p] = make([]byte, m.pageSize)
	}
	copy(m.pages[p], buf)
	return nil
}

// Grow implements Device.
func (m *Mem) Grow(n PageNo) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if n > MaxPageNo {
		return ErrOutOfRange
	}
	for PageNo(len(m.pages)) < n {
		m.pages = append(m.pages, nil) // lazily materialized on first write
	}
	return nil
}

// Shrink implements Device.
func (m *Mem) Shrink(n PageNo) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if PageNo(len(m.pages)) > n {
		m.pages = m.pages[:n]
	}
	return nil
}

// Sync implements Device. It is a no-op for the in-memory device.
func (m *Mem) Sync() error { return nil }

// Close implements Device.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.pages = nil
	return nil
}

// File is a Device backed by an operating-system file. Pages map linearly
// onto the file: page p occupies bytes [p*PageSize, (p+1)*PageSize).
//
// Reads take no lock: the closed flag and the page count are atomics,
// and os.File makes a ReadAt that races Close fail with os.ErrClosed,
// never read another file's bytes. So a Sync — which holds mu across its
// fsync — never stalls a read. Everything else serializes on mu.
type File struct {
	mu       sync.Mutex
	f        *os.File
	pageSize int
	numPages atomic.Uint64
	closed   atomic.Bool
}

// OpenFile opens (or creates) the file at path as a page device. If the
// file is non-empty its length must be a multiple of pageSize.
func OpenFile(path string, pageSize int) (*File, error) {
	if !ValidPageSize(pageSize) {
		return nil, fmt.Errorf("pagedev: invalid page size %d", pageSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagedev: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pagedev: stat %s: %w", path, err)
	}
	if st.Size()%int64(pageSize) != 0 {
		f.Close()
		return nil, fmt.Errorf("pagedev: %s: size %d is not a multiple of page size %d", path, st.Size(), pageSize)
	}
	d := &File{f: f, pageSize: pageSize}
	d.numPages.Store(uint64(st.Size() / int64(pageSize)))
	return d, nil
}

// PageSize implements Device.
func (d *File) PageSize() int { return d.pageSize }

// NumPages implements Device.
func (d *File) NumPages() PageNo { return PageNo(d.numPages.Load()) }

// Read implements Device.
func (d *File) Read(p PageNo, buf []byte) error {
	if len(buf) != d.pageSize {
		return ErrBadSize
	}
	return d.readAt(p, buf)
}

// readAt reads buf from page p on with one positional read and no lock.
// A read that races Close fails with ErrClosed; one that races a Shrink
// past its pages, with ErrOutOfRange.
func (d *File) readAt(p PageNo, buf []byte) error {
	if d.closed.Load() {
		return ErrClosed
	}
	end := p + PageNo(len(buf)/d.pageSize)
	if n := d.NumPages(); end > n || end <= p {
		return fmt.Errorf("%w: read pages [%d,%d) of %d", ErrOutOfRange, p, end, n)
	}
	_, err := d.f.ReadAt(buf, int64(p)*int64(d.pageSize))
	switch {
	case err == nil:
		return nil
	case errors.Is(err, os.ErrClosed):
		return ErrClosed
	case errors.Is(err, io.EOF):
		return fmt.Errorf("%w: read pages [%d,%d): shrunk", ErrOutOfRange, p, end)
	}
	return fmt.Errorf("pagedev: read pages [%d,%d): %w", p, end, err)
}

// Write implements Device.
func (d *File) Write(p PageNo, buf []byte) error {
	if len(buf) != d.pageSize {
		return ErrBadSize
	}
	return d.WriteRange(p, buf)
}

// Grow implements Device. The new size is published once the file has it.
func (d *File) Grow(n PageNo) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed.Load() {
		return ErrClosed
	}
	if n > MaxPageNo {
		return ErrOutOfRange
	}
	if n <= d.NumPages() {
		return nil
	}
	if err := d.f.Truncate(int64(n) * int64(d.pageSize)); err != nil {
		return fmt.Errorf("pagedev: grow to %d pages: %w", n, err)
	}
	d.numPages.Store(uint64(n))
	return nil
}

// Shrink implements Device. The new size is published before the file
// is cut, so a read that sees the old size can only race the truncate,
// and gets ErrOutOfRange from it.
func (d *File) Shrink(n PageNo) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed.Load() {
		return ErrClosed
	}
	if n >= d.NumPages() {
		return nil
	}
	d.numPages.Store(uint64(n))
	if err := d.f.Truncate(int64(n) * int64(d.pageSize)); err != nil {
		return fmt.Errorf("pagedev: shrink to %d pages: %w", n, err)
	}
	return nil
}

// Sync implements Device.
func (d *File) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed.Load() {
		return ErrClosed
	}
	return d.f.Sync()
}

// Close implements Device.
func (d *File) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed.Swap(true) {
		return nil
	}
	return d.f.Close()
}
