package buffer

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"natix/internal/pagedev"
	"natix/internal/wal"
)

// refDiffRanges is diffRanges as it stood before it went word-wise: one
// byte at a time. The differential test holds the production version to
// its exact output.
func refDiffRanges(old, new []byte) []wal.Range {
	var out []wal.Range
	n := len(old)
	for i := 0; i < n; {
		if old[i] == new[i] {
			i++
			continue
		}
		start := i
		end := i + 1
		for j := i + 1; j < n && j-end < mergeGap; j++ {
			if old[j] != new[j] {
				end = j + 1
			}
		}
		out = append(out, wal.Range{Off: start, Before: old[start:end], After: new[start:end]})
		i = end + mergeGap
		if i > n {
			i = n
		}
	}
	if len(out) > maxRanges {
		lo := out[0].Off
		hi := out[len(out)-1].Off + len(out[len(out)-1].Before)
		out = []wal.Range{{Off: lo, Before: old[lo:hi], After: new[lo:hi]}}
	}
	return out
}

func sameRanges(a, b []wal.Range) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Off != b[i].Off || !bytes.Equal(a[i].Before, b[i].Before) || !bytes.Equal(a[i].After, b[i].After) {
			return false
		}
	}
	return true
}

func checkDiff(t *testing.T, name string, old, new []byte) {
	t.Helper()
	want := refDiffRanges(old, new)
	got := diffRanges(nil, old, new, 0)
	if !sameRanges(got, want) {
		t.Fatalf("%s: diffRanges = %+v, reference = %+v", name, got, want)
	}
}

func TestDiffRangesMatchesReference(t *testing.T) {
	// Two differing bytes at every distance around mergeGap, at every
	// alignment of the first within a word, on lengths around a multiple
	// of 8 — the places where word and byte scans could part ways.
	for _, n := range []int{1, 7, 8, 9, 63, 64, 65, 100} {
		for first := 0; first < n && first < 24; first++ {
			for gap := 1; gap <= mergeGap+9; gap++ {
				old := make([]byte, n)
				new := make([]byte, n)
				new[first] = 1
				if second := first + gap; second < n {
					new[second] = 2
				}
				checkDiff(t, "pair", old, new)
			}
		}
	}
	// A difference in the last byte, the first byte, and both.
	for _, n := range []int{1, 5, 8, 13, 16, 4096} {
		old := make([]byte, n)
		new := make([]byte, n)
		new[n-1] = 9
		checkDiff(t, "last byte", old, new)
		new[0] = 9
		checkDiff(t, "both ends", old, new)
	}
	// The maxRanges collapse: one run too many, exactly enough, one fewer.
	for _, runs := range []int{maxRanges - 1, maxRanges, maxRanges + 1} {
		n := runs * (mergeGap + 8)
		old := make([]byte, n+3)
		new := make([]byte, n+3)
		for r := 0; r < runs; r++ {
			new[r*(mergeGap+8)+r%8] = 1
		}
		checkDiff(t, "collapse", old, new)
	}

	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(700)
		old := make([]byte, n)
		rng.Read(old)
		new := append([]byte(nil), old...)
		switch trial % 4 {
		case 0: // scattered single bytes
			for k := rng.Intn(12); k > 0; k-- {
				new[rng.Intn(n)] ^= byte(1 + rng.Intn(255))
			}
		case 1: // a rewritten span, as a record update leaves
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo+1)
			rng.Read(new[lo:hi])
		case 2: // a shifted tail: most bytes differ, some by chance do not
			lo := rng.Intn(n)
			copy(new[lo:], old[min(lo+1+rng.Intn(8), n):])
		case 3: // dense sparse flips: many short runs, some within mergeGap
			for i := rng.Intn(40); i < n; i += 1 + rng.Intn(2*mergeGap+4) {
				new[i] ^= 0x80
			}
		}
		checkDiff(t, "random", old, new)
	}
}

// BenchmarkDiffRanges diffs an 8 KB page in which one record-sized span
// changed — the shape of every logged record update.
func BenchmarkDiffRanges(b *testing.B) {
	old := make([]byte, 8192)
	rand.New(rand.NewSource(1)).Read(old)
	new := append([]byte(nil), old...)
	for i := 3000; i < 5300; i++ {
		new[i] ^= 0x55
	}
	b.SetBytes(int64(len(old)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(diffRanges(nil, old, new, 0)) != 1 {
			b.Fatal("want one range")
		}
	}
}

// walPool is a small logged pool with page 0 loaded, past its fresh
// image and its first post-checkpoint update, so the next bracket logs
// a plain update record.
func walPool(t *testing.T, pageSize int) (*Pool, *Frame, *wal.MemStorage, *wal.Writer) {
	t.Helper()
	dev, _ := pagedev.NewMem(pageSize)
	pool, err := New(dev, 4)
	if err != nil {
		t.Fatal(err)
	}
	st := wal.NewMemStorage()
	w, err := wal.OpenWriter(st, wal.Options{PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	pool.AttachWAL(w)
	if _, err := w.Begin("test", 0); err != nil {
		t.Fatal(err)
	}
	dev.Grow(1)
	f, err := pool.GetNew(0)
	if err != nil {
		t.Fatal(err)
	}
	f.Latch()
	u := f.BeginUpdate()
	rand.New(rand.NewSource(3)).Read(f.Data()[32:])
	if err := f.EndUpdate(u); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Unlatch(); f.Release() })
	return pool, f, st, w
}

// lastRecord returns the last record of the log.
func lastRecord(t *testing.T, st *wal.MemStorage, w *wal.Writer) wal.Record {
	t.Helper()
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	var last wal.Record
	if _, _, err := wal.Scan(st, func(r wal.Record) error { last = r; return nil }); err != nil {
		t.Fatal(err)
	}
	return last
}

// randomWindows cuts n disjoint windows out of a page, in random order
// of declaration, keeping clear of the common header (the LSN stamp is
// EndUpdate's own).
func randomWindows(rng *rand.Rand, pageSize, n int) []Window {
	var out []Window
	lo := 32
	for i := 0; i < n && lo < pageSize-1; i++ {
		off := lo + rng.Intn((pageSize-lo)/(n-i))
		ln := 1 + rng.Intn(min(300, pageSize-off))
		out = append(out, Window{Off: off, Len: ln})
		lo = off + ln
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestWindowedUpdateLogsThePageDiff: a bracket that declares its windows
// logs, with the windows packed or with the whole page snapshotted in
// checking mode, exactly the ranges the byte-wise reference diff finds
// inside each window — the same physical ranges a whole-page diff yields
// once they are cut at the window edges — and redo and undo of the
// record reproduce the page.
func TestWindowedUpdateLogsThePageDiff(t *testing.T) {
	for _, check := range []bool{false, true} {
		defer SetWindowCheck(SetWindowCheck(check))
		_, f, st, w := walPool(t, 2048)
		rng := rand.New(rand.NewSource(41))
		for trial := 0; trial < 300; trial++ {
			wins := randomWindows(rng, 2048, 1+rng.Intn(5))
			old := append([]byte(nil), f.Data()...)
			u := f.BeginUpdate(wins...)
			for _, win := range wins {
				b := f.Data()[win.Off : win.Off+win.Len]
				switch rng.Intn(4) {
				case 0: // untouched
				case 1: // rewritten whole
					rng.Read(b)
				case 2: // shifted: most bytes differ
					copy(b[min(len(b), 3):], append([]byte(nil), b...))
				case 3: // a few scattered bytes
					for k := 1 + rng.Intn(4); k > 0; k-- {
						b[rng.Intn(len(b))] ^= 0x5A
					}
				}
			}
			end := w.End()
			if err := f.EndUpdate(u); err != nil {
				t.Fatalf("check=%v trial %d: %v", check, trial, err)
			}
			var want []wal.Range
			for _, win := range wins {
				for _, r := range refDiffRanges(old[win.Off:win.Off+win.Len], f.Data()[win.Off:win.Off+win.Len]) {
					r.Off += win.Off
					want = append(want, r)
				}
			}
			if len(want) == 0 {
				if w.End() != end {
					t.Fatalf("check=%v trial %d: no-op bracket appended a record", check, trial)
				}
				continue
			}
			rec := lastRecord(t, st, w)
			if wal.TypeName(rec.Type) != "update" || rec.Page != 0 {
				t.Fatalf("check=%v trial %d: logged %s for page %d", check, trial, wal.TypeName(rec.Type), rec.Page)
			}
			if !sameRanges(rec.Ranges, want) {
				t.Fatalf("check=%v trial %d: windows %v logged %d ranges, reference %d", check, trial, wins, len(rec.Ranges), len(want))
			}
			redo, undo := append([]byte(nil), old...), append([]byte(nil), f.Data()...)
			for _, r := range rec.Ranges {
				copy(redo[r.Off:], r.After)
				copy(undo[r.Off:], r.Before)
			}
			// The LSN stamp is written after the diff and is not part of it.
			if !bytes.Equal(redo[16:], f.Data()[16:]) || !bytes.Equal(undo[16:], old[16:]) {
				t.Fatalf("check=%v trial %d: logged ranges do not round-trip the page", check, trial)
			}
		}
	}
}

// TestWindowedFirstUpdateCarriesBeforeImage: the first change after a
// checkpoint logs the whole page before-image whatever was declared.
func TestWindowedFirstUpdateCarriesBeforeImage(t *testing.T) {
	defer SetWindowCheck(SetWindowCheck(false))
	pool, f, st, w := walPool(t, 1024)
	pool.AdvanceWALEpoch()
	old := append([]byte(nil), f.Data()...)
	u := f.BeginUpdate(Window{Off: 500, Len: 4})
	copy(f.Data()[500:], "edit")
	if err := f.EndUpdate(u); err != nil {
		t.Fatal(err)
	}
	rec := lastRecord(t, st, w)
	if wal.TypeName(rec.Type) != "first-update" || !bytes.Equal(rec.BeforeImage, old) {
		t.Fatalf("logged %s with a %d-byte before-image", wal.TypeName(rec.Type), len(rec.BeforeImage))
	}
	if len(rec.Ranges) != 1 || rec.Ranges[0].Off != 500 || string(rec.Ranges[0].After) != "edit" {
		t.Fatalf("ranges %+v", rec.Ranges)
	}
}

// TestWindowCheckCatchesStrayWrite: in checking mode a byte changed
// outside the declared windows fails the bracket, with and without a
// log; with the check off the same write goes unnoticed (and unlogged),
// which is what the check exists to rule out.
func TestWindowCheckCatchesStrayWrite(t *testing.T) {
	defer SetWindowCheck(SetWindowCheck(true))
	_, f, _, w := walPool(t, 1024)
	stray := func(f *Frame) error {
		u := f.BeginUpdate(Window{Off: 100, Len: 8}, Window{Off: 300, Len: 2})
		f.Data()[104] ^= 1
		f.Data()[301] ^= 1
		f.Data()[302] ^= 1 // one past the second window
		return f.EndUpdate(u)
	}
	if err := stray(f); !errors.Is(err, ErrOutsideWindow) {
		t.Fatalf("logged pool: EndUpdate error %v, want ErrOutsideWindow", err)
	}
	u := f.BeginUpdate(Window{Off: 100, Len: 8})
	f.Data()[107] ^= 1
	if err := f.EndUpdate(u); err != nil {
		t.Fatalf("write inside the window: %v", err)
	}

	dev, _ := pagedev.NewMem(1024)
	dev.Grow(1)
	plain, _ := New(dev, 2)
	g, err := plain.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	if err := stray(g); !errors.Is(err, ErrOutsideWindow) {
		t.Fatalf("unlogged pool: EndUpdate error %v, want ErrOutsideWindow", err)
	}

	SetWindowCheck(false)
	end := w.End()
	if err := stray(f); err != nil {
		t.Fatalf("check off: %v", err)
	}
	if w.End() == end {
		t.Fatal("check off: the declared part of the change was not logged")
	}
}

// BenchmarkWindowedUpdate is one update bracket around a 30-byte change
// of an 8 KB page: declared, against the whole-page snapshot and diff.
func BenchmarkWindowedUpdate(b *testing.B) {
	defer SetWindowCheck(SetWindowCheck(false))
	for _, windowed := range []bool{true, false} {
		name := "whole-page"
		if windowed {
			name = "windowed"
		}
		b.Run(name, func(b *testing.B) {
			dev, _ := pagedev.NewMem(8192)
			pool, _ := New(dev, 4)
			w, _ := wal.OpenWriter(wal.NewMemStorage(), wal.Options{PageSize: 8192})
			pool.AttachWAL(w)
			w.Begin("bench", 0)
			dev.Grow(1)
			f, _ := pool.GetNew(0)
			f.Latch()
			defer f.Unlatch()
			defer f.Release()
			u := f.BeginUpdate()
			f.Data()[100] = 1
			f.EndUpdate(u)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if windowed {
					u = f.BeginUpdate(Window{Off: 4000, Len: 30})
				} else {
					u = f.BeginUpdate()
				}
				f.Data()[4000+i%30]++
				if err := f.EndUpdate(u); err != nil {
					b.Fatal(err)
				}
				if i%4096 == 4095 {
					b.StopTimer()
					w.Commit()
					w.Checkpoint(1)
					w.Begin("bench", 1)
					b.StartTimer()
				}
			}
		})
	}
}
