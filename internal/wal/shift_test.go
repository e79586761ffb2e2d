package wal

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"natix/internal/pagedev"
	"natix/internal/pageformat"
)

// shiftOf performs an insert (ins non-empty) or a removal of del bytes at
// off, in front of a tail of tail bytes, on page — the way
// pageformat.Slotted.Splice edits a cell where it lies — together with
// the small writes beside it, and returns the shift record that says so.
func shiftOf(page []byte, p pagedev.PageNo, off, tail int, ins []byte, del int, small ...Range) Record {
	sh := Shift{Shift: pageformat.Shift{Off: off, Tail: tail}}
	if len(ins) > 0 {
		sh.Delta = len(ins)
		sh.Ins = ins
		sh.Del = append([]byte(nil), page[off+tail:off+tail+len(ins)]...)
		copy(page[off+len(ins):], page[off:off+tail])
		copy(page[off:], ins)
	} else {
		sh.Delta = -del
		sh.Del = append([]byte(nil), page[off:off+del]...)
		copy(page[off:], page[off+del:off+del+tail])
	}
	var ranges []Range
	for _, r := range small {
		ranges = append(ranges, mutate(page, r.Off, r.After))
	}
	return Record{Type: RecShift, Page: p, Shift: sh, Ranges: ranges}
}

// shiftSamples is a few shift records of the shapes a node edit logs on
// a 512-byte page: an insert and a removal in front of a tail, an append
// behind a cell (no tail), each with header, slot and size-field ranges.
func shiftSamples() []Record {
	page := make([]byte, testPage)
	rand.New(rand.NewSource(9)).Read(page)
	small := []Range{{Off: 18, After: []byte{0x40, 1}}, {Off: 508, After: []byte{0x77}}, {Off: 60, After: []byte{9, 0}}}
	return []Record{
		shiftOf(page, 3, 100, 180, []byte("<a new node of thirty bytes..>"), 0, small...),
		shiftOf(page, 3, 120, 150, nil, 12, small[:2]...),
		shiftOf(page, 7, 300, 0, []byte{1, 0, 0, 0}, 0),
		shiftOf(page, 7, 24, 400, nil, 40, small[0]),
	}
}

// TestShiftRecordRoundTrip: a shift record survives the codec, the
// writer and Scan, and is counted.
func TestShiftRecordRoundTrip(t *testing.T) {
	st := NewMemStorage()
	w, err := OpenWriter(st, Options{PageSize: testPage})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Begin("edit", 9); err != nil {
		t.Fatal(err)
	}
	var bytesWant int64
	for _, rec := range shiftSamples() {
		enc := appendPayload(nil, &rec)
		back, err := decodePayload(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(normalize(back), normalize(rec)) {
			t.Fatalf("decode(encode(rec)) = %+v, want %+v", back, rec)
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := decodePayload(enc[:cut]); !errors.Is(err, ErrBadRecord) {
				t.Fatalf("decode of a shift cut to %d of %d bytes: %v", cut, len(enc), err)
			}
		}
		if _, err := w.AppendShift(rec.Page, rec.Shift, rec.Ranges); err != nil {
			t.Fatal(err)
		}
		bytesWant += int64(len(enc))
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if s := w.Stats(); s.ShiftRecords != 4 || s.ShiftBytes != bytesWant {
		t.Fatalf("stats %+v, want 4 shift records of %d bytes", s, bytesWant)
	}
	var got []Record
	if _, _, err := Scan(st, func(r Record) error {
		if r.Type == RecShift {
			r.LSN = 0
			got = append(got, normalize(r))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := shiftSamples()
	for i := range want {
		want[i] = normalize(want[i])
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scan returned %+v", got)
	}
	if TypeName(RecShift) != "shift" {
		t.Fatalf("TypeName = %q", TypeName(RecShift))
	}
}

// TestShiftRedoUndo: redo of a shift record on the page before the edit
// gives the edited page, undo on the edited page gives the page before,
// byte for byte — the bytes behind a shrunken cell and under a grown one
// included.
func TestShiftRedoUndo(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 2000; trial++ {
		before := make([]byte, testPage)
		rng.Read(before)
		k := 1 + rng.Intn(60)
		tail := rng.Intn(200)
		off := 32 + rng.Intn(testPage-40-tail-k-32)
		var small []Range
		if rng.Intn(3) > 0 {
			small = append(small, Range{Off: 16 + rng.Intn(12), After: []byte{byte(trial), 1}})
		}
		if rng.Intn(3) > 0 {
			small = append(small, Range{Off: testPage - 4 - rng.Intn(20), After: []byte{2, byte(trial)}})
		}
		after := append([]byte(nil), before...)
		var rec Record
		if rng.Intn(2) == 0 {
			ins := make([]byte, k)
			rng.Read(ins)
			rec = shiftOf(after, 1, off, tail, ins, 0, small...)
		} else {
			rec = shiftOf(after, 1, off, tail, nil, k, small...)
		}
		page := append([]byte(nil), before...)
		if err := rec.Redo(page); err != nil {
			t.Fatalf("trial %d: redo: %v", trial, err)
		}
		if !bytes.Equal(page, after) {
			t.Fatalf("trial %d: redo of %+v does not give the edited page", trial, rec.Shift)
		}
		if err := rec.Undo(page); err != nil {
			t.Fatalf("trial %d: undo: %v", trial, err)
		}
		if !bytes.Equal(page, before) {
			t.Fatalf("trial %d: undo of %+v does not restore the page", trial, rec.Shift)
		}
	}
}

// TestShiftRefusals: every malformed or misapplied shift is ErrBadRecord
// and leaves the page alone.
func TestShiftRefusals(t *testing.T) {
	base := make([]byte, testPage)
	rand.New(rand.NewSource(23)).Read(base)
	edited := append([]byte(nil), base...)
	good := shiftOf(edited, 1, 100, 50, []byte("abcd"), 0, Range{Off: 18, After: []byte{1, 2}})
	cases := map[string]func(r *Record){
		"offset past the page":     func(r *Record) { r.Shift.Off = testPage },
		"tail past the page":       func(r *Record) { r.Shift.Tail = testPage - 100 },
		"negative tail":            func(r *Record) { r.Shift.Tail = -1 },
		"zero delta":               func(r *Record) { r.Shift.Delta = 0 },
		"ins shorter than delta":   func(r *Record) { r.Shift.Ins = r.Shift.Ins[:2] },
		"del shorter than delta":   func(r *Record) { r.Shift.Del = nil },
		"removal larger than page": func(r *Record) { r.Shift.Delta, r.Shift.Ins, r.Shift.Del = -600, nil, make([]byte, 600) },
		"range inside the region": func(r *Record) {
			r.Ranges = append(r.Ranges, Range{Off: 120, Before: base[120:122], After: []byte{0, 0}})
		},
		"ranges overlap":            func(r *Record) { r.Ranges = append(r.Ranges, Range{Off: 19, Before: base[19:21], After: []byte{0, 0}}) },
		"range past the page":       func(r *Record) { r.Ranges[0].Off = testPage - 1 },
		"range lengths differ":      func(r *Record) { r.Ranges[0].After = []byte{1} },
		"before-bytes do not match": func(r *Record) { r.Ranges[0].Before = []byte{0xFF, 0xFF} },
		"destroyed bytes differ":    func(r *Record) { r.Shift.Del = []byte("nope") },
	}
	if page := append([]byte(nil), base...); good.Redo(page) != nil || !bytes.Equal(page, edited) {
		t.Fatal("the unbroken record does not apply")
	}
	for name, breakIt := range cases {
		rec := good
		rec.Ranges = append([]Range(nil), good.Ranges...)
		breakIt(&rec)
		page := append([]byte(nil), base...)
		if err := rec.Redo(page); !errors.Is(err, ErrBadRecord) {
			t.Errorf("%s: Redo = %v, want ErrBadRecord", name, err)
		}
		if !bytes.Equal(page, base) {
			t.Errorf("%s: refused Redo changed the page", name)
		}
	}
	// Undo checks the other side: the page must hold what redo wrote.
	page := append([]byte(nil), base...)
	if err := good.Undo(page); !errors.Is(err, ErrBadRecord) || !bytes.Equal(page, base) {
		t.Fatalf("Undo on a page that does not hold the shift: %v", err)
	}
	// A removal larger than its tail is legal as long as it stays inside
	// the page.
	page = append([]byte(nil), base...)
	rm := shiftOf(append([]byte(nil), base...), 1, 400, 10, nil, 90)
	if err := rm.Redo(page); err != nil {
		t.Fatalf("removal of 90 bytes in front of a 10-byte tail: %v", err)
	}
	if err := rm.Undo(page); err != nil || !bytes.Equal(page, base) {
		t.Fatalf("undo of it: %v", err)
	}
}

// TestRedoRejectsOutOfBoundsRange: a range that runs past the page is
// ErrBadRecord from Record.Redo, so Recover and ReconstructPage — which
// used to skip it silently — now agree.
func TestRedoRejectsOutOfBoundsRange(t *testing.T) {
	p0 := fill(1)
	bad := []Range{{Off: testPage - 2, Before: []byte{1, 1, 1, 1}, After: []byte{2, 2, 2, 2}}}

	st := NewMemStorage()
	w, _ := OpenWriter(st, Options{PageSize: testPage})
	w.Begin("op", 1)
	w.AppendFirstUpdate(0, p0, nil)
	w.AppendUpdate(0, bad)
	w.Commit()
	if _, _, err := w.ReconstructPage(0, testPage); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("ReconstructPage = %v, want ErrBadRecord", err)
	}
	if _, err := Recover(newDev(t, p0), st); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("Recover = %v, want ErrBadRecord", err)
	}
}

// shiftLog writes a log over one existing page: a first-update, then a
// committed shift, then (unfinished) a second shift. It returns the page
// before, after the first and after both shifts.
func shiftLog(t *testing.T, finishSecond bool) (st *MemStorage, w *Writer, before, mid, after []byte) {
	t.Helper()
	before = fill(3)
	rand.New(rand.NewSource(77)).Read(before[pageformat.CommonHeaderSize:])
	pageformat.UpdateChecksum(before)
	st = NewMemStorage()
	w, err := OpenWriter(st, Options{PageSize: testPage})
	if err != nil {
		t.Fatal(err)
	}
	page := append([]byte(nil), before...)
	w.Begin("edit-1", 1)
	w.AppendFirstUpdate(0, before, []Range{mutate(page, 40, []byte{5, 5})})
	s1 := shiftOf(page, 0, 100, 120, []byte("first inserted node"), 0, Range{Off: 18, After: []byte{0x99}})
	w.AppendShift(0, s1.Shift, s1.Ranges)
	w.Commit()
	mid = append([]byte(nil), page...)
	w.Begin("edit-2", 1)
	s2 := shiftOf(page, 0, 110, 129, nil, 7, Range{Off: 18, After: []byte{0x92}}, Range{Off: 500, After: []byte{1, 2, 3}})
	w.AppendShift(0, s2.Shift, s2.Ranges)
	if finishSecond {
		w.Commit()
	} else {
		w.Sync()
	}
	return st, w, before, mid, append([]byte(nil), page...)
}

// TestRecoverShift: committed shifts replay from the page's image —
// whatever the device holds, even the page with both shifts already in
// it, which a blind re-application would corrupt — and the shift of the
// unfinished operation is taken back out.
func TestRecoverShift(t *testing.T) {
	for _, finish := range []bool{true, false} {
		st, _, before, mid, after := shiftLog(t, finish)
		want := mid
		if finish {
			want = after
		}
		for name, onDevice := range map[string][]byte{"stale": before, "stolen": after} {
			dev := newDev(t, onDevice)
			log := NewMemStorageFrom(st.Snapshot())
			res, err := Recover(dev, log)
			if err != nil {
				t.Fatalf("finish=%v %s: %v", finish, name, err)
			}
			if wantUndone := map[bool]int{true: 0, false: 1}[finish]; res.UndoneOps != wantUndone {
				t.Fatalf("finish=%v %s: result %+v", finish, name, res)
			}
			if got := readPage(t, dev, 0); !sameBody(got, want) {
				t.Fatalf("finish=%v %s device page: recovered page is not the committed one", finish, name)
			}
		}
	}
}

// TestRecoverRefusesShiftWithoutImage: a shift whose page has no earlier
// image in the replayed log is never applied to device bytes.
func TestRecoverRefusesShiftWithoutImage(t *testing.T) {
	page := fill(4)
	dev := newDev(t, page)
	st := NewMemStorage()
	w, _ := OpenWriter(st, Options{PageSize: testPage})
	w.Begin("edit", 1)
	s := shiftOf(append([]byte(nil), page...), 0, 100, 20, []byte("node"), 0)
	w.AppendShift(0, s.Shift, s.Ranges)
	w.Commit()
	if _, err := Recover(dev, st); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("Recover = %v, want ErrBadRecord", err)
	}
	if got := readPage(t, dev, 0); !bytes.Equal(got, page) {
		t.Fatal("refused recovery wrote the page")
	}
	if _, ok, _ := w.ReconstructPage(0, testPage); ok {
		t.Fatal("ReconstructPage rebuilt a page the log holds no image of")
	}
}

// TestReconstructPageWithShifts: the repair path replays shifts like
// recovery does, the active operation's included.
func TestReconstructPageWithShifts(t *testing.T) {
	_, w, _, _, after := shiftLog(t, false)
	got, ok, err := w.ReconstructPage(0, testPage)
	if err != nil || !ok {
		t.Fatalf("reconstruct: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, after) {
		t.Fatal("reconstructed page differs from live content")
	}
}

// TestLogVersions: this build writes NXWAL002 and still reads NXWAL001 —
// a log of physical records written before the shift record existed
// recovers as it did, a header-only 001 log is reset to 002 when a
// writer attaches, and every reset writes 002.
func TestLogVersions(t *testing.T) {
	asV1 := func(st *MemStorage) *MemStorage {
		b := st.Snapshot()
		if [8]byte(b[:8]) != logMagic {
			t.Fatalf("log written with magic %q", b[:8])
		}
		copy(b, logMagicV1[:])
		return NewMemStorageFrom(b)
	}
	magicOf := func(st *MemStorage) string { return string(st.Snapshot()[:8]) }

	// A physical-only log under the old magic replays.
	p0 := fill(1)
	st := NewMemStorage()
	w, _ := OpenWriter(st, Options{PageSize: testPage})
	w.Begin("op", 1)
	after := append([]byte(nil), p0...)
	w.AppendFirstUpdate(0, p0, []Range{mutate(after, 100, []byte{0xEE})})
	w.AppendUpdate(0, []Range{mutate(after, 300, []byte("physical"))})
	w.Commit()
	old := asV1(st)
	n := 0
	if _, _, err := Scan(old, func(Record) error { n++; return nil }); err != nil || n != 4 {
		t.Fatalf("scan of a version 1 log: %d records, %v", n, err)
	}
	dev := newDev(t, p0)
	if res, err := Recover(dev, old); err != nil || res.RedoneOps != 1 {
		t.Fatalf("recover version 1 log: %+v, %v", res, err)
	}
	if got := readPage(t, dev, 0); !sameBody(got, after) {
		t.Fatal("version 1 log not replayed")
	}
	if magicOf(old) != string(logMagic[:]) {
		t.Fatalf("log reset by recovery carries %q", magicOf(old))
	}

	// A header-only version 1 log (a clean close by an older build).
	empty := asV1(NewMemStorageFrom(encodeHeader(header{base: 77, pageSize: testPage})))
	w2, err := OpenWriter(empty, Options{PageSize: testPage})
	if err != nil {
		t.Fatal(err)
	}
	if magicOf(empty) != string(logMagic[:]) || w2.End() != 77 {
		t.Fatalf("header-only version 1 log: magic %q, end %d", magicOf(empty), w2.End())
	}

	// A version 1 log with records is appended to as it is and turns 002
	// at the next reset.
	st3 := NewMemStorage()
	w3, _ := OpenWriter(st3, Options{PageSize: testPage})
	w3.Begin("op", 1)
	w3.Commit()
	live := asV1(st3)
	w4, err := OpenWriter(live, Options{PageSize: testPage})
	if err != nil {
		t.Fatal(err)
	}
	if magicOf(live) != string(logMagicV1[:]) {
		t.Fatal("a log with records had its header rewritten")
	}
	if err := w4.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	if magicOf(live) != string(logMagic[:]) {
		t.Fatalf("checkpoint reset wrote %q", magicOf(live))
	}

	// Anything else is not a log.
	junk := NewMemStorageFrom(append([]byte("NXWAL003"), make([]byte, 24)...))
	if _, _, err := Scan(junk, func(Record) error { return nil }); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("scan of an unknown version: %v", err)
	}
}

// FuzzApplyShift applies whatever shift record the decoder accepts to an
// arbitrary page: Redo either refuses with ErrBadRecord, leaving the page
// alone, or Undo of the result restores the page byte for byte. It must
// never panic or write outside the page — a removal larger than its
// tail, an offset past the page, ranges that overlap each other or the
// moved bytes.
func FuzzApplyShift(f *testing.F) {
	page := make([]byte, testPage)
	rand.New(rand.NewSource(9)).Read(page) // the page shiftSamples edits
	for _, rec := range shiftSamples() {
		// Each sample is seeded with the page it applies to: the one the
		// samples before it leave behind.
		f.Add(appendPayload(nil, &rec), append([]byte(nil), page...))
		if err := rec.Redo(page); err != nil {
			f.Fatal(err)
		}
	}
	wild := Record{Type: RecShift, Page: 1, Shift: Shift{Shift: pageformat.Shift{Off: 500, Tail: 400, Delta: -300}, Del: make([]byte, 300)},
		Ranges: []Range{{Off: 510, Before: []byte{1, 2, 3}, After: []byte{4, 5, 6}}}}
	f.Add(appendPayload(nil, &wild), page)
	f.Fuzz(func(t *testing.T, payload, page []byte) {
		rec, err := decodePayload(payload)
		if err != nil || rec.Type != RecShift {
			return
		}
		// The canary behind the page catches a write past its end.
		buf := append(append([]byte(nil), page...), 0xC5, 0x5C, 0xC5, 0x5C)
		work := buf[:len(page):len(page)]
		if err := rec.Redo(work); err != nil {
			if !errors.Is(err, ErrBadRecord) {
				t.Fatalf("Redo error outside ErrBadRecord: %v", err)
			}
			if !bytes.Equal(work, page) {
				t.Fatal("refused Redo changed the page")
			}
		} else {
			if err := rec.Undo(work); err != nil {
				t.Fatalf("Undo after Redo: %v", err)
			}
			if !bytes.Equal(work, page) {
				t.Fatalf("Undo(Redo(page)) != page for %+v", rec.Shift)
			}
		}
		if !bytes.Equal(buf[len(page):], []byte{0xC5, 0x5C, 0xC5, 0x5C}) {
			t.Fatal("applier wrote past the page")
		}
	})
}

// BenchmarkRecoverShift replays a log of 10 000 committed shifts over 32
// pages onto a stale device: the redo cost of the paper's incremental
// workload after a crash.
func BenchmarkRecoverShift(b *testing.B) {
	const ps, numPages, shifts = 8192, 32, 10000
	rng := rand.New(rand.NewSource(1))
	images := make([][]byte, numPages)
	for p := range images {
		images[p] = make([]byte, ps)
		pageformat.InitCommon(images[p], pageformat.TypePlain)
		rng.Read(images[p][pageformat.CommonHeaderSize:])
		pageformat.UpdateChecksum(images[p])
	}
	st := NewMemStorage()
	w, _ := OpenWriter(st, Options{PageSize: ps})
	pages := make([][]byte, numPages)
	for p := range pages {
		pages[p] = append([]byte(nil), images[p]...)
		w.Begin("touch", numPages)
		w.AppendFirstUpdate(pagedev.PageNo(p), images[p], []Range{mutate(pages[p], 40, []byte{1})})
		w.Commit()
	}
	node := make([]byte, 30)
	for i := 0; i < shifts; i++ {
		p := rng.Intn(numPages)
		w.Begin("edit", numPages)
		var s Record
		if i%2 == 0 {
			rng.Read(node)
			s = shiftOf(pages[p], pagedev.PageNo(p), 2000+rng.Intn(2000), 900, node, 0, Range{Off: 18, After: []byte{byte(i)}})
		} else {
			s = shiftOf(pages[p], pagedev.PageNo(p), 2000+rng.Intn(2000), 900, nil, 30, Range{Off: 18, After: []byte{byte(i)}})
		}
		w.AppendShift(s.Page, s.Shift, s.Ranges)
		w.Commit()
	}
	log := st.Snapshot()
	b.SetBytes(int64(len(log)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dev, _ := pagedev.NewMem(ps)
		dev.Grow(numPages)
		for p, img := range images {
			dev.Write(pagedev.PageNo(p), img)
		}
		b.StartTimer()
		res, err := Recover(dev, NewMemStorageFrom(log))
		if err != nil || res.RedoneOps != numPages+shifts {
			b.Fatalf("recover: %+v, %v", res, err)
		}
	}
}
