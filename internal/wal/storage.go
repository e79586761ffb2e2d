package wal

import (
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Storage is the byte store a log lives in. The write-ahead log needs
// positional reads and writes, truncation (checkpoints discard the
// log), and a durability barrier. File-backed stores use FileStorage;
// in-memory stores and tests use MemStorage.
type Storage interface {
	io.ReaderAt
	io.WriterAt
	// Size returns the current length in bytes.
	Size() (int64, error)
	// Truncate resizes the storage to exactly n bytes.
	Truncate(n int64) error
	// Sync forces written bytes to stable storage.
	Sync() error
	// Close releases the storage.
	Close() error
}

// FileStorage is a Storage backed by an operating-system file. Reads,
// truncation and sync are system calls. So is every write, unless the
// storage maps the log's tail (OpenMappedFileStorage): then an append
// is a copy into a shared mapping of the file, which puts it in the
// kernel's page cache without a system call.
//
// A FileStorage is not safe for concurrent writes: the log's Writer
// serializes them, and Recover runs before there is one.
type FileStorage struct {
	f      *os.File
	writes atomic.Int64

	// The mapped tail (mapped storages only). The file is grown in
	// steps of at least growStep bytes of real, zero-filled blocks
	// before the mapping covers them, so a write into the mapping lands
	// in blocks that exist; alloc is the file's size after the last
	// step. win maps the file from offset winOff on, up to alloc; it is
	// nil until the first growth step and after a truncation.
	mapped bool
	alloc  int64
	winOff int64
	win    []byte
}

// growStep is the least a mapped log file grows by at a time. A crash
// can leave up to this many zero bytes behind the last record; Scan
// ends the log's valid prefix at the first of them.
const growStep = 1 << 20

// zeroBlock is what a growth step writes.
var zeroBlock [growStep]byte

// OpenFileStorage opens (or creates) the log file at path. Every write
// is a positional write (pwrite).
func OpenFileStorage(path string) (*FileStorage, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	return &FileStorage{f: f}, nil
}

// OpenMappedFileStorage is OpenFileStorage for a log whose commits need
// no durability barrier (Options.NoSync): appends are copied into a
// shared mapping of the file's tail, so a commit makes no system call.
// The bytes are in the page cache when the copy returns; they survive
// the death of the process, not of the machine. Where the platform has
// no such mapping (anything but Linux) this is OpenFileStorage.
//
// A synced log is better off with OpenFileStorage: each Sync
// write-protects the mapped pages it cleaned, and the next append to
// each of them takes a write fault.
func OpenMappedFileStorage(path string) (*FileStorage, error) {
	s, err := OpenFileStorage(path)
	if err != nil || !canMapTail {
		return s, err
	}
	st, err := s.f.Stat()
	if err != nil {
		s.f.Close()
		return nil, err
	}
	s.mapped, s.alloc = true, st.Size()
	return s, nil
}

// OpenFileStorageReadOnly opens the log file at path for reading only,
// for a tool that inspects the log of a store another process may have
// open: every write and truncation fails, and nothing is mapped.
func OpenFileStorageReadOnly(path string) (*FileStorage, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	return &FileStorage{f: f}, nil
}

// ReadAt implements Storage. Reads are positional reads (pread), also
// of a mapped tail, so an I/O error is an error and never a fault.
func (s *FileStorage) ReadAt(p []byte, off int64) (int, error) { return s.f.ReadAt(p, off) }

// WriteAt implements Storage. On a mapped storage, a write the mapping
// covers is a copy; one past the file's end first grows the file and
// moves the mapping to cover it; any other write, and every write on an
// unmapped storage, is a pwrite.
func (s *FileStorage) WriteAt(p []byte, off int64) (int, error) {
	if s.mapped {
		end := off + int64(len(p))
		if end > s.alloc {
			if err := s.grow(off, end); err != nil {
				return 0, err
			}
		}
		if s.win != nil && off >= s.winOff && end <= s.alloc {
			return s.copyIn(p, off)
		}
	}
	s.writes.Add(1)
	return s.f.WriteAt(p, off)
}

// grow extends the file to hold [off, end) and then growStep bytes
// more, writing the zeros through pwrite so that the blocks exist
// before the mapping is touched (a full disk is an error here, not a
// SIGBUS later), and maps the window from off's page to the new end.
func (s *FileStorage) grow(off, end int64) error {
	newAlloc := max(end, s.alloc+growStep)
	for o := s.alloc; o < newAlloc; {
		n := min(int64(growStep), newAlloc-o)
		s.writes.Add(1)
		if _, err := s.f.WriteAt(zeroBlock[:n], o); err != nil {
			return err
		}
		o += n
	}
	s.alloc = newAlloc
	if err := s.unmap(); err != nil {
		return err
	}
	winOff := off &^ int64(os.Getpagesize()-1)
	win, err := mapFile(s.f, winOff, int(newAlloc-winOff))
	if err != nil {
		return fmt.Errorf("wal: map %s: %w", s.f.Name(), err)
	}
	s.win, s.winOff = win, winOff
	return nil
}

// copyIn copies p into the mapping at file offset off. The file can
// shrink under the mapping only by another handle's doing; the fault
// that makes is returned as an error instead of ending the process.
func (s *FileStorage) copyIn(p []byte, off int64) (n int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("wal: %s shrank under its mapping: %v", s.f.Name(), r)
		}
	}()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	return copy(s.win[off-s.winOff:], p), nil
}

// unmap drops the mapping, if any.
func (s *FileStorage) unmap() error {
	if s.win == nil {
		return nil
	}
	win := s.win
	s.win, s.winOff = nil, 0
	return unmapFile(win)
}

// Writes returns the number of system-call writes made to the file,
// growth steps included; the copies into a mapped tail are not among
// them.
func (s *FileStorage) Writes() int64 { return s.writes.Load() }

// Size implements Storage.
func (s *FileStorage) Size() (int64, error) {
	st, err := s.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Truncate implements Storage. A mapped storage drops its mapping,
// which may now lie past the file's end; the next write past n grows
// the file again.
func (s *FileStorage) Truncate(n int64) error {
	if err := s.f.Truncate(n); err != nil {
		return err
	}
	if !s.mapped {
		return nil
	}
	s.alloc = n
	return s.unmap()
}

// Sync implements Storage. fsync also writes back what was copied into
// a mapped tail.
func (s *FileStorage) Sync() error { return s.f.Sync() }

// Close implements Storage.
func (s *FileStorage) Close() error {
	err := s.unmap()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// MemStorage is an in-memory Storage. It is safe for concurrent use
// and supports snapshotting, which crash tests use to capture the
// bytes that "survived" a simulated crash.
type MemStorage struct {
	mu sync.RWMutex
	b  []byte
}

// NewMemStorage returns an empty in-memory log storage.
func NewMemStorage() *MemStorage { return &MemStorage{} }

// NewMemStorageFrom returns an in-memory storage holding a copy of b.
func NewMemStorageFrom(b []byte) *MemStorage {
	return &MemStorage{b: append([]byte(nil), b...)}
}

// Snapshot returns a copy of the current contents.
func (s *MemStorage) Snapshot() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]byte(nil), s.b...)
}

// ReadAt implements Storage.
func (s *MemStorage) ReadAt(p []byte, off int64) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if off >= int64(len(s.b)) {
		return 0, io.EOF
	}
	n := copy(p, s.b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements Storage.
func (s *MemStorage) WriteAt(p []byte, off int64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	end := off + int64(len(p))
	if grow := end - int64(len(s.b)); grow > 0 {
		s.b = append(s.b, make([]byte, grow)...)
	}
	copy(s.b[off:end], p)
	return len(p), nil
}

// Size implements Storage.
func (s *MemStorage) Size() (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int64(len(s.b)), nil
}

// Truncate implements Storage.
func (s *MemStorage) Truncate(n int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if grow := n - int64(len(s.b)); grow > 0 {
		s.b = append(s.b, make([]byte, grow)...)
	}
	s.b = s.b[:n]
	return nil
}

// Sync implements Storage. In-memory storage is "stable" by fiat.
func (s *MemStorage) Sync() error { return nil }

// Close implements Storage.
func (s *MemStorage) Close() error { return nil }
