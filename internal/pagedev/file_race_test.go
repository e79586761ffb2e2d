package pagedev

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// newStampedFile opens a File of n pages, page p holding stamp(tag, p)
// in every 8-byte word.
func newStampedFile(t *testing.T, name string, tag uint32, n int) *File {
	t.Helper()
	d, err := OpenFile(filepath.Join(t.TempDir(), name), 1024)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	if err := d.Grow(PageNo(n)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, d.PageSize())
	for p := 0; p < n; p++ {
		for i := 0; i < len(buf); i += 8 {
			binary.LittleEndian.PutUint64(buf[i:], stamp(tag, PageNo(p)))
		}
		if err := d.Write(PageNo(p), buf); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func stamp(tag uint32, p PageNo) uint64 { return uint64(tag)<<32 | uint64(p) }

// checkStamped reports an error unless buf is page p of the file tagged tag.
func checkStamped(buf []byte, tag uint32, p PageNo) error {
	for i := 0; i < len(buf); i += 8 {
		if w := binary.LittleEndian.Uint64(buf[i:]); w != stamp(tag, p) {
			return fmt.Errorf("page %d word %d is %#x, want %#x", p, i/8, w, stamp(tag, p))
		}
	}
	return nil
}

// TestFileReadRacesSyncGrowClose: Read and ReadRange take no lock, so
// they run beside Sync (which holds the device mutex across an fsync),
// Grow and finally Close. Every read returns its own page's bytes or,
// once Close has begun, ErrClosed. Run under -race.
func TestFileReadRacesSyncGrowClose(t *testing.T) {
	const pages = 64
	d := newStampedFile(t, "race.dev", 7, pages)
	var (
		wg     sync.WaitGroup
		closed atomic.Bool
		reads  atomic.Int64
	)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 2*d.PageSize())
			for i := 0; ; i++ {
				p := PageNo((i*7 + g*13) % (pages - 1))
				var err error
				if i%4 == 0 {
					err = d.ReadRange(p, buf)
				} else {
					err = d.Read(p, buf[:d.PageSize()])
				}
				if errors.Is(err, ErrClosed) {
					if !closed.Load() {
						t.Error("ErrClosed before Close")
					}
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				if err := checkStamped(buf[:d.PageSize()], 7, p); err != nil {
					t.Error(err)
					return
				}
				reads.Add(1)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := d.Grow(PageNo(pages + i)); err != nil {
			t.Fatal(err)
		}
	}
	for reads.Load() < 100 {
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	closed.Store(true)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestFileReadAfterCloseIsErrClosed: once closed, a device fails every
// read with ErrClosed — even when the operating system has since given
// its file descriptor to another file.
func TestFileReadAfterCloseIsErrClosed(t *testing.T) {
	a := newStampedFile(t, "a.dev", 1, 4)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	b := newStampedFile(t, "b.dev", 2, 4) // likely reuses a's descriptor
	buf := make([]byte, a.PageSize())
	if err := a.Read(1, buf); !errors.Is(err, ErrClosed) {
		t.Fatalf("Read after Close: %v, want ErrClosed", err)
	}
	if err := a.ReadRange(0, make([]byte, 2*a.PageSize())); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadRange after Close: %v, want ErrClosed", err)
	}
	if err := b.Read(1, buf); err != nil {
		t.Fatal(err)
	}
	if err := checkStamped(buf, 2, 1); err != nil {
		t.Fatal(err)
	}
}

// TestFileReadPastShrinkIsOutOfRange: a read of a page a Shrink cut off
// fails with ErrOutOfRange; the pages below still read their bytes.
func TestFileReadPastShrinkIsOutOfRange(t *testing.T) {
	d := newStampedFile(t, "shrink.dev", 3, 8)
	if err := d.Shrink(5); err != nil {
		t.Fatal(err)
	}
	if n := d.NumPages(); n != 5 {
		t.Fatalf("NumPages() = %d after Shrink(5)", n)
	}
	buf := make([]byte, d.PageSize())
	for _, p := range []PageNo{5, 7} {
		if err := d.Read(p, buf); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("Read(%d) after Shrink(5): %v, want ErrOutOfRange", p, err)
		}
	}
	if err := d.ReadRange(4, make([]byte, 2*d.PageSize())); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("ReadRange(4, 2 pages) after Shrink(5): %v, want ErrOutOfRange", err)
	}
	if err := d.Read(4, buf); err != nil {
		t.Fatal(err)
	}
	if err := checkStamped(buf, 3, 4); err != nil {
		t.Fatal(err)
	}
}
