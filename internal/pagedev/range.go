package pagedev

// Vectored page I/O: a run of adjacent pages moved in one device
// operation. The buffer pool's coalesced write-back sorts dirty frames
// by page number and pushes each adjacent run through WriteRange (one
// syscall instead of one per page on a File device, one sequential
// transfer instead of per-page seeks on the simulated disk), and the
// integrity scrubber's sweep pulls its verification batches through
// ReadRange the same way.

import "fmt"

// RangeWriter is implemented by devices that can store a run of
// adjacent pages in one operation.
type RangeWriter interface {
	// WriteRange stores buf (a multiple of PageSize bytes) as pages
	// p, p+1, ... All pages must already be allocated via Grow.
	WriteRange(p PageNo, buf []byte) error
}

// RangeReader is implemented by devices that can fetch a run of
// adjacent pages in one operation.
type RangeReader interface {
	// ReadRange fills buf (a multiple of PageSize bytes) with pages
	// p, p+1, ...
	ReadRange(p PageNo, buf []byte) error
}

// WriteRange stores buf as the run of pages starting at p, using the
// device's vectored path when it has one and falling back to per-page
// writes otherwise. len(buf) must be a non-zero multiple of the page
// size.
func WriteRange(dev Device, p PageNo, buf []byte) error {
	ps := dev.PageSize()
	if len(buf) == 0 || len(buf)%ps != 0 {
		return ErrBadSize
	}
	if rw, ok := dev.(RangeWriter); ok {
		return rw.WriteRange(p, buf)
	}
	for off := 0; off < len(buf); off += ps {
		if err := dev.Write(p, buf[off:off+ps]); err != nil {
			return err
		}
		p++
	}
	return nil
}

// ReadRange fills buf with the run of pages starting at p, using the
// device's vectored path when it has one and falling back to per-page
// reads otherwise. len(buf) must be a non-zero multiple of the page
// size.
func ReadRange(dev Device, p PageNo, buf []byte) error {
	ps := dev.PageSize()
	if len(buf) == 0 || len(buf)%ps != 0 {
		return ErrBadSize
	}
	if rr, ok := dev.(RangeReader); ok {
		return rr.ReadRange(p, buf)
	}
	for off := 0; off < len(buf); off += ps {
		if err := dev.Read(p, buf[off:off+ps]); err != nil {
			return err
		}
		p++
	}
	return nil
}

// WriteRange implements RangeWriter: the whole run is copied under one
// lock acquisition.
func (m *Mem) WriteRange(p PageNo, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if len(buf) == 0 || len(buf)%m.pageSize != 0 {
		return ErrBadSize
	}
	n := PageNo(len(buf) / m.pageSize)
	if p+n > PageNo(len(m.pages)) {
		return fmt.Errorf("%w: write pages [%d,%d) of %d", ErrOutOfRange, p, p+n, len(m.pages))
	}
	for i := PageNo(0); i < n; i++ {
		if m.pages[p+i] == nil {
			m.pages[p+i] = make([]byte, m.pageSize)
		}
		copy(m.pages[p+i], buf[int(i)*m.pageSize:])
	}
	return nil
}

// ReadRange implements RangeReader: the whole run is copied under one
// lock acquisition.
func (m *Mem) ReadRange(p PageNo, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if len(buf) == 0 || len(buf)%m.pageSize != 0 {
		return ErrBadSize
	}
	n := PageNo(len(buf) / m.pageSize)
	if p+n > PageNo(len(m.pages)) {
		return fmt.Errorf("%w: read pages [%d,%d) of %d", ErrOutOfRange, p, p+n, len(m.pages))
	}
	for i := PageNo(0); i < n; i++ {
		dst := buf[int(i)*m.pageSize : int(i+1)*m.pageSize]
		if m.pages[p+i] == nil {
			for j := range dst {
				dst[j] = 0
			}
			continue
		}
		copy(dst, m.pages[p+i])
	}
	return nil
}

// WriteRange implements RangeWriter: the run is one positional write,
// the syscall saving that motivates coalesced write-back.
func (d *File) WriteRange(p PageNo, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed.Load() {
		return ErrClosed
	}
	if len(buf) == 0 || len(buf)%d.pageSize != 0 {
		return ErrBadSize
	}
	n := PageNo(len(buf) / d.pageSize)
	if p+n > d.NumPages() {
		return fmt.Errorf("%w: write pages [%d,%d) of %d", ErrOutOfRange, p, p+n, d.NumPages())
	}
	if _, err := d.f.WriteAt(buf, int64(p)*int64(d.pageSize)); err != nil {
		return fmt.Errorf("pagedev: write pages [%d,%d): %w", p, p+n, err)
	}
	return nil
}

// ReadRange implements RangeReader: the run is one positional read,
// lock-free as Read is.
func (d *File) ReadRange(p PageNo, buf []byte) error {
	if len(buf) == 0 || len(buf)%d.pageSize != 0 {
		return ErrBadSize
	}
	return d.readAt(p, buf)
}

// WriteRange implements RangeWriter. The inner device moves the run in
// one operation; the cost model charges the first page a seek and every
// following page a sequential continuation, which is exactly what the
// per-page charge sequence produces.
func (s *SimDisk) WriteRange(p PageNo, buf []byte) error {
	if err := WriteRange(s.inner, p, buf); err != nil {
		return err
	}
	n := PageNo(len(buf) / s.inner.PageSize())
	for i := PageNo(0); i < n; i++ {
		s.charge(p+i, true)
	}
	return nil
}

// ReadRange implements RangeReader, charging like WriteRange.
func (s *SimDisk) ReadRange(p PageNo, buf []byte) error {
	if err := ReadRange(s.inner, p, buf); err != nil {
		return err
	}
	n := PageNo(len(buf) / s.inner.PageSize())
	for i := PageNo(0); i < n; i++ {
		s.charge(p+i, false)
	}
	return nil
}

// WriteRange implements RangeWriter by issuing per-page writes through
// the fault layer: every page of the run must tick the crash clock and
// consult the transient model individually, so a vectored write crashes
// (or tears) at exactly the same granularity a page-at-a-time flush
// would.
func (f *Fault) WriteRange(p PageNo, buf []byte) error {
	ps := f.inner.PageSize()
	if len(buf) == 0 || len(buf)%ps != 0 {
		return ErrBadSize
	}
	for off := 0; off < len(buf); off += ps {
		if err := f.Write(p, buf[off:off+ps]); err != nil {
			return err
		}
		p++
	}
	return nil
}

// ReadRange implements RangeReader by issuing per-page reads through
// the fault layer, preserving per-page transient-error injection.
func (f *Fault) ReadRange(p PageNo, buf []byte) error {
	ps := f.inner.PageSize()
	if len(buf) == 0 || len(buf)%ps != 0 {
		return ErrBadSize
	}
	for off := 0; off < len(buf); off += ps {
		if err := f.Read(p, buf[off:off+ps]); err != nil {
			return err
		}
		p++
	}
	return nil
}
