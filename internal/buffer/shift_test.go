package buffer

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"natix/internal/pagedev"
	"natix/internal/wal"
)

// spliceBytes performs, on the page of f, the in-place splice a shift
// describes — ins written at sh.Off in front of the tail, or the bytes
// there removed — and writes the small windows.
func spliceBytes(f *Frame, sh Shift, ins []byte, small []Window, rng *rand.Rand) {
	b := f.Data()
	if sh.Delta > 0 {
		copy(b[sh.Off+sh.Delta:], b[sh.Off:sh.Off+sh.Tail])
		copy(b[sh.Off:], ins)
	} else {
		copy(b[sh.Off:], b[sh.Off-sh.Delta:sh.Off-sh.Delta+sh.Tail])
	}
	for _, w := range small {
		if w.Len > 1 {
			rng.Read(b[w.Off : w.Off+w.Len-1]) // the last byte stays: a window need not change whole
		}
	}
}

// TestShiftBracketLogsTheShift: a BeginShift bracket on a page that has
// its image in the epoch's log appends a shift record — packed snapshot
// or checking mode alike — whose redo on the page before gives the page
// after and whose undo gives it back, which carries the inserted bytes
// once and the tail not at all.
func TestShiftBracketLogsTheShift(t *testing.T) {
	for _, check := range []bool{false, true} {
		defer SetWindowCheck(SetWindowCheck(check))
		_, f, st, w := walPool(t, 2048)
		rng := rand.New(rand.NewSource(43))
		for trial := 0; trial < 400; trial++ {
			k := 1 + rng.Intn(80)
			tail := rng.Intn(900)
			sh := Shift{Off: 40 + rng.Intn(2048-40-8-tail-k-40), Tail: tail, Delta: k}
			if rng.Intn(2) == 0 {
				sh.Delta = -k
			}
			small := []Window{{Off: 18, Len: 4}, {Off: 2048 - 4*(1+rng.Intn(2)), Len: 4}}
			if sh.Off > 60 && rng.Intn(2) == 0 {
				small = append(small, Window{Off: 24 + rng.Intn(10), Len: 2})
			}
			ins := make([]byte, max(sh.Delta, 0))
			rng.Read(ins)
			old := append([]byte(nil), f.Data()...)
			size := w.Stats().Bytes
			u := f.BeginShift(sh, small...)
			spliceBytes(f, sh, ins, small, rng)
			if err := f.EndUpdate(u); err != nil {
				t.Fatalf("check=%v trial %d %+v: %v", check, trial, sh, err)
			}
			rec := lastRecord(t, st, w)
			if rec.Type != wal.RecShift || rec.Page != 0 {
				t.Fatalf("check=%v trial %d: logged %s for page %d, want a shift", check, trial, wal.TypeName(rec.Type), rec.Page)
			}
			redo, undo := append([]byte(nil), old...), append([]byte(nil), f.Data()...)
			if err := rec.Redo(redo); err != nil {
				t.Fatalf("check=%v trial %d: redo: %v", check, trial, err)
			}
			// The LSN stamp is written after the record and is not part of it.
			copy(undo[:16], old[:16])
			if err := rec.Undo(undo); err != nil {
				t.Fatalf("check=%v trial %d: undo: %v", check, trial, err)
			}
			if !bytes.Equal(redo[16:], f.Data()[16:]) || !bytes.Equal(undo, old) {
				t.Fatalf("check=%v trial %d: the shift record of %+v does not round-trip the page", check, trial, sh)
			}
			if rec.Shift.Off != sh.Off || rec.Shift.Tail != sh.Tail || rec.Shift.Delta != sh.Delta || !bytes.Equal(rec.Shift.Ins, ins) {
				t.Fatalf("check=%v trial %d: logged shift %+v, declared %+v", check, trial, rec.Shift, sh)
			}
			if logged := int(w.Stats().Bytes - size); logged > 15+2*k+2+len(small)*(4+2*4) {
				t.Fatalf("check=%v trial %d: shift of %d bytes in front of a %d-byte tail logged %d bytes", check, trial, k, tail, logged)
			}
		}
		if s := w.Stats(); s.ShiftRecords != 400 {
			t.Fatalf("check=%v: %d shift records counted, want 400", check, s.ShiftRecords)
		}
	}
}

// TestShiftBracketFirstUpdate: the epoch rule. A page's first change of
// a checkpoint epoch is never a shift — there is no image of the page in
// the log for replay to start from — so the bracket logs a first-update
// with the whole before-image and the physical ranges; the next one is a
// shift again. A fresh page logs its image, an unlogged pool nothing.
func TestShiftBracketFirstUpdate(t *testing.T) {
	defer SetWindowCheck(SetWindowCheck(false))
	pool, f, st, w := walPool(t, 1024)
	rng := rand.New(rand.NewSource(5))
	sh := Shift{Off: 200, Tail: 300, Delta: 6}
	small := []Window{{Off: 18, Len: 4}}
	edit := func(f *Frame) {
		u := f.BeginShift(sh, small...)
		spliceBytes(f, sh, []byte("sixsix"), small, rng)
		if err := f.EndUpdate(u); err != nil {
			t.Fatal(err)
		}
	}
	pool.AdvanceWALEpoch()
	old := append([]byte(nil), f.Data()...)
	edit(f)
	rec := lastRecord(t, st, w)
	if wal.TypeName(rec.Type) != "first-update" || !bytes.Equal(rec.BeforeImage, old) {
		t.Fatalf("first change of the epoch logged %s with a %d-byte before-image", wal.TypeName(rec.Type), len(rec.BeforeImage))
	}
	redo := make([]byte, 1024)
	if err := rec.Redo(redo); err != nil || !bytes.Equal(redo[16:], f.Data()[16:]) {
		t.Fatalf("first-update does not replay to the page (err %v)", err)
	}
	edit(f)
	if rec := lastRecord(t, st, w); wal.TypeName(rec.Type) != "shift" {
		t.Fatalf("second change of the epoch logged %s", wal.TypeName(rec.Type))
	}

	dev := pool.Device().(*pagedev.Mem)
	dev.Grow(2)
	g, err := pool.GetNew(1)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	edit(g)
	if rec := lastRecord(t, st, w); wal.TypeName(rec.Type) != "image" || !bytes.Equal(rec.Image[16:], g.Data()[16:]) {
		t.Fatalf("fresh page logged %s", wal.TypeName(rec.Type))
	}

	plainDev, _ := pagedev.NewMem(1024)
	plainDev.Grow(1)
	plain, _ := New(plainDev, 2)
	h, err := plain.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	edit(h)
	if !h.dirty.Load() {
		t.Fatal("unlogged shift bracket left the frame clean")
	}
}

// TestShiftCheckCatchesWrongShift: in checking mode a mutation that is
// not the shift it declared — the tail moved by one byte too few, the
// inserted bytes spilling over, a small write left undeclared — fails the
// bracket, with and without a log: the record would not replay to the
// page. With the check off the first goes unnoticed, into the log.
func TestShiftCheckCatchesWrongShift(t *testing.T) {
	defer SetWindowCheck(SetWindowCheck(true))
	_, f, st, w := walPool(t, 1024)
	dev, _ := pagedev.NewMem(1024)
	dev.Grow(1)
	plain, _ := New(dev, 2)
	g, err := plain.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	rand.New(rand.NewSource(8)).Read(g.Data()[32:])

	sh := Shift{Off: 300, Tail: 200, Delta: 10}
	short := func(f *Frame) error { // moves the tail by 9, not 10
		u := f.BeginShift(sh, Window{Off: 18, Len: 2})
		b := f.Data()
		copy(b[sh.Off+9:], b[sh.Off:sh.Off+sh.Tail])
		copy(b[sh.Off:], "123456789")
		b[18]++
		return f.EndUpdate(u)
	}
	stray := func(f *Frame) error { // the right shift, and a byte nobody declared
		u := f.BeginShift(sh, Window{Off: 18, Len: 2})
		spliceBytes(f, sh, []byte("0123456789"), nil, nil)
		f.Data()[700] ^= 1
		return f.EndUpdate(u)
	}
	for name, fr := range map[string]*Frame{"logged": f, "unlogged": g} {
		end := w.End()
		if err := short(fr); !errors.Is(err, ErrReplayMismatch) {
			t.Fatalf("%s pool, short move: EndUpdate error %v, want ErrReplayMismatch", name, err)
		}
		if err := stray(fr); !errors.Is(err, ErrOutsideWindow) {
			t.Fatalf("%s pool, stray write: EndUpdate error %v, want ErrOutsideWindow", name, err)
		}
		if w.End() != end {
			t.Fatalf("%s pool: a refused bracket appended a record", name)
		}
	}
	u := f.BeginShift(sh, Window{Off: 18, Len: 2})
	spliceBytes(f, sh, []byte("0123456789"), nil, nil)
	if err := f.EndUpdate(u); err != nil {
		t.Fatalf("the declared shift: %v", err)
	}

	SetWindowCheck(false)
	old := append([]byte(nil), f.Data()...)
	if err := short(f); err != nil {
		t.Fatalf("check off: %v", err)
	}
	rec := lastRecord(t, st, w)
	if err := rec.Redo(old); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(old[16:], f.Data()[16:]) {
		t.Fatal("check off: the wrong shift replays to the page after all; the test proves nothing")
	}
}

// BenchmarkShiftUpdate is one update bracket around a 30-byte node
// spliced into an 8 KB page in front of a 900-byte tail — the average
// edit of the incremental workload — logged as a shift record against the
// physical windowed bracket over the same bytes (inserts and removals
// alternate, so the page stays as it is). It reports the log bytes each
// appends per operation.
func BenchmarkShiftUpdate(b *testing.B) {
	defer SetWindowCheck(SetWindowCheck(false))
	for _, shift := range []bool{true, false} {
		name := "windowed"
		if shift {
			name = "shift"
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
			rand.New(rand.NewSource(1)).Read(f.Data()[32:])
			f.EndUpdate(u)
			firstUpdate := func() { // a reset log holds no image of the page
				u := f.BeginUpdate(Window{Off: 100, Len: 1})
				f.Data()[100]++
				f.EndUpdate(u)
			}
			node := []byte("<LINE>thirty bytes of text</L>")
			small := []Window{{Off: 18, Len: 4}, {Off: 8188, Len: 4}, {Off: 3000, Len: 2}, {Off: 3400, Len: 2}}
			windows := append(small[:4:4], Window{}) // the windowed bracket declares the shift's body too
			data := f.Data()
			start := w.Stats().Bytes
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sh := Shift{Off: 4000, Tail: 900, Delta: len(node)}
				if i%2 == 1 {
					sh.Delta = -len(node)
				}
				var u Update
				if shift {
					u = f.BeginShift(sh, small...)
				} else {
					windows[4] = sh.Body()
					u = f.BeginUpdate(windows...)
				}
				if sh.Delta > 0 {
					copy(data[4000+len(node):], data[4000:4900])
					copy(data[4000:], node)
				} else {
					copy(data[4000:], data[4000+len(node):4900+len(node)])
				}
				data[18]++
				data[8190]++
				data[3000]++
				data[3400]++
				if err := f.EndUpdate(u); err != nil {
					b.Fatal(err)
				}
				if i%4096 == 4095 {
					b.StopTimer()
					w.Commit()
					w.Checkpoint(1)
					pool.AdvanceWALEpoch()
					w.Begin("bench", 1)
					firstUpdate()
					b.StartTimer()
				}
			}
			b.ReportMetric(float64(w.Stats().Bytes-start)/float64(b.N), "logB/op")
		})
	}
}
