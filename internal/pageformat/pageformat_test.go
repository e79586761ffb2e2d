package pageformat

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func newPage(t *testing.T, size int) Slotted {
	t.Helper()
	return FormatSlotted(make([]byte, size))
}

func TestFormatAndAttach(t *testing.T) {
	b := make([]byte, 2048)
	FormatSlotted(b)
	s, err := AsSlotted(b)
	if err != nil {
		t.Fatalf("AsSlotted: %v", err)
	}
	if s.SlotCount() != 0 || s.LiveCells() != 0 {
		t.Fatalf("fresh page has %d slots, %d live", s.SlotCount(), s.LiveCells())
	}
	if got, want := s.FreeBytes(), 2048-24; got != want {
		t.Fatalf("FreeBytes = %d, want %d", got, want)
	}
}

func TestAsSlottedRejectsOtherTypes(t *testing.T) {
	b := make([]byte, 1024)
	if _, err := AsSlotted(b); err == nil {
		t.Fatal("AsSlotted accepted a zero page")
	}
	InitCommon(b, TypeFSI)
	if _, err := AsSlotted(b); err == nil {
		t.Fatal("AsSlotted accepted an FSI page")
	}
}

func TestInsertReadRoundTrip(t *testing.T) {
	s := newPage(t, 2048)
	var slots []int
	var want [][]byte
	for i := 0; i < 10; i++ {
		data := bytes.Repeat([]byte{byte(i + 1)}, 10+i*7)
		slot, ok := s.Insert(data)
		if !ok {
			t.Fatalf("Insert %d failed", i)
		}
		slots = append(slots, slot)
		want = append(want, data)
	}
	for i, slot := range slots {
		got, err := s.Cell(slot)
		if err != nil {
			t.Fatalf("Cell(%d): %v", slot, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("cell %d corrupted", slot)
		}
	}
}

func TestInsertUntilFullThenDelete(t *testing.T) {
	s := newPage(t, 1024)
	data := bytes.Repeat([]byte{0xCD}, 100)
	var slots []int
	for {
		slot, ok := s.Insert(data)
		if !ok {
			break
		}
		slots = append(slots, slot)
	}
	if len(slots) == 0 {
		t.Fatal("no inserts succeeded")
	}
	// (100+4) bytes per cell on a 1024-16 byte arena → 9 cells.
	if len(slots) != 9 {
		t.Fatalf("inserted %d cells, want 9", len(slots))
	}
	// Delete everything; page should be fully reusable.
	for _, slot := range slots {
		if err := s.Delete(slot); err != nil {
			t.Fatalf("Delete(%d): %v", slot, err)
		}
	}
	if s.LiveCells() != 0 {
		t.Fatalf("LiveCells = %d after deleting all", s.LiveCells())
	}
	if s.SlotCount() != 0 {
		t.Fatalf("trailing dead slots not trimmed: SlotCount = %d", s.SlotCount())
	}
	if got, want := s.FreeBytes(), 1024-24; got != want {
		t.Fatalf("FreeBytes after full delete = %d, want %d", got, want)
	}
}

func TestDeleteReusesSlots(t *testing.T) {
	s := newPage(t, 1024)
	a, _ := s.Insert([]byte("aaaa"))
	b, _ := s.Insert([]byte("bbbb"))
	c, _ := s.Insert([]byte("cccc"))
	_ = c
	if err := s.Delete(b); err != nil {
		t.Fatal(err)
	}
	d, ok := s.Insert([]byte("dddd"))
	if !ok {
		t.Fatal("insert after delete failed")
	}
	if d != b {
		t.Fatalf("dead slot not reused: got slot %d, want %d", d, b)
	}
	// Slot a must be untouched.
	got, err := s.Cell(a)
	if err != nil || string(got) != "aaaa" {
		t.Fatalf("cell a corrupted: %q, %v", got, err)
	}
}

func TestCompactionReclaimsFragmentation(t *testing.T) {
	s := newPage(t, 1024)
	// Fill the page with two alternating cell sizes.
	var slots []int
	for {
		slot, ok := s.Insert(bytes.Repeat([]byte{1}, 60))
		if !ok {
			break
		}
		slots = append(slots, slot)
	}
	// Delete every other cell: frees space but fragments it.
	for i := 0; i < len(slots); i += 2 {
		if err := s.Delete(slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	// A cell larger than any single hole must still fit via compaction.
	big := bytes.Repeat([]byte{7}, 100)
	if !s.CanInsert(len(big)) {
		t.Fatalf("CanInsert(100) = false with FreeBytes = %d", s.FreeBytes())
	}
	slot, ok := s.Insert(big)
	if !ok {
		t.Fatal("insert requiring compaction failed")
	}
	got, err := s.Cell(slot)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("cell after compaction corrupted: %v", err)
	}
	// Survivors must be intact.
	for i := 1; i < len(slots); i += 2 {
		got, err := s.Cell(slots[i])
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{1}, 60)) {
			t.Fatalf("survivor slot %d corrupted after compaction: %v", slots[i], err)
		}
	}
}

func TestUpdateShrinkGrowInPlace(t *testing.T) {
	s := newPage(t, 1024)
	slot, _ := s.Insert(bytes.Repeat([]byte{9}, 200))
	// Shrink.
	if !s.Update(slot, []byte("tiny")) {
		t.Fatal("shrinking update failed")
	}
	got, _ := s.Cell(slot)
	if string(got) != "tiny" {
		t.Fatalf("after shrink: %q", got)
	}
	// Grow back, larger than before.
	big := bytes.Repeat([]byte{3}, 400)
	if !s.Update(slot, big) {
		t.Fatal("growing update failed")
	}
	got, _ = s.Cell(slot)
	if !bytes.Equal(got, big) {
		t.Fatal("after grow: corrupted")
	}
}

func TestUpdateTooBigFails(t *testing.T) {
	s := newPage(t, 1024)
	slot, _ := s.Insert([]byte("x"))
	if s.Update(slot, bytes.Repeat([]byte{1}, 2000)) {
		t.Fatal("update larger than page succeeded")
	}
	got, _ := s.Cell(slot)
	if string(got) != "x" {
		t.Fatalf("failed update clobbered cell: %q", got)
	}
}

func TestFlags(t *testing.T) {
	s := newPage(t, 1024)
	slot, _ := s.Insert([]byte("fwd"))
	if fl, err := s.Flag(slot); err != nil || fl {
		t.Fatalf("fresh cell flag = %v, %v", fl, err)
	}
	if err := s.SetFlag(slot, true); err != nil {
		t.Fatal(err)
	}
	if fl, _ := s.Flag(slot); !fl {
		t.Fatal("flag did not stick")
	}
	// Flag survives an in-place update.
	if !s.Update(slot, []byte("fw")) {
		t.Fatal("update failed")
	}
	if fl, _ := s.Flag(slot); !fl {
		t.Fatal("flag lost on update")
	}
	// Flag survives a growing (relocating) update.
	if !s.Update(slot, bytes.Repeat([]byte{2}, 300)) {
		t.Fatal("growing update failed")
	}
	if fl, _ := s.Flag(slot); !fl {
		t.Fatal("flag lost on growing update")
	}
}

func TestCellErrors(t *testing.T) {
	s := newPage(t, 1024)
	if _, err := s.Cell(0); err == nil {
		t.Fatal("Cell on empty page succeeded")
	}
	slot, _ := s.Insert([]byte("a"))
	if _, err := s.Cell(slot + 5); err == nil {
		t.Fatal("Cell past directory succeeded")
	}
	if _, err := s.Cell(-1); err == nil {
		t.Fatal("Cell(-1) succeeded")
	}
	if err := s.Delete(slot + 5); err == nil {
		t.Fatal("Delete past directory succeeded")
	}
	if err := s.Delete(slot); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(slot); err == nil {
		t.Fatal("double delete succeeded")
	}
}

func TestMaxCellSize(t *testing.T) {
	for _, ps := range []int{2048, 4096, 32768} {
		s := newPage(t, ps)
		max := MaxCellSize(ps)
		slot, ok := s.Insert(bytes.Repeat([]byte{5}, max))
		if !ok {
			t.Fatalf("page %d: max-size cell did not fit", ps)
		}
		if _, err := s.Cell(slot); err != nil {
			t.Fatal(err)
		}
		s2 := newPage(t, ps)
		if _, ok := s2.Insert(bytes.Repeat([]byte{5}, max+1)); ok {
			t.Fatalf("page %d: cell one over max fit", ps)
		}
	}
}

func TestChecksumRoundTrip(t *testing.T) {
	b := make([]byte, 2048)
	s := FormatSlotted(b)
	s.Insert([]byte("payload"))
	UpdateChecksum(b)
	if err := VerifyChecksum(b); err != nil {
		t.Fatalf("verify after update: %v", err)
	}
	b[100] ^= 0xFF
	if err := VerifyChecksum(b); err == nil {
		t.Fatal("corruption not detected")
	}
	b[100] ^= 0xFF
	if err := VerifyChecksum(b); err != nil {
		t.Fatalf("restored page fails verify: %v", err)
	}
	// Never-written pages pass (they carry no checksum).
	if err := VerifyChecksum(make([]byte, 2048)); err != nil {
		t.Fatalf("zero page fails verify: %v", err)
	}
}

// TestSlottedPageModel drives a random operation sequence against a
// map-based model and checks full equivalence after every step.
func TestSlottedPageModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 20; round++ {
		pageSize := []int{512, 1024, 2048, 8192}[rng.Intn(4)]
		s := newPage(t, pageSize)
		model := map[int][]byte{}
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // insert
				n := 1 + rng.Intn(pageSize/4)
				data := make([]byte, n)
				rng.Read(data)
				slot, ok := s.Insert(data)
				if ok {
					if _, exists := model[slot]; exists {
						t.Fatalf("round %d step %d: Insert returned live slot %d", round, step, slot)
					}
					model[slot] = append([]byte(nil), data...)
				} else if s.freeSlot() >= 0 && s.FreeBytes() >= n || s.freeSlot() < 0 && s.FreeBytes() >= n+slotSize {
					t.Fatalf("round %d step %d: Insert(%d) failed with FreeBytes=%d", round, step, n, s.FreeBytes())
				}
			case op < 7: // delete
				slot := anyKey(model, rng)
				if slot < 0 {
					continue
				}
				if err := s.Delete(slot); err != nil {
					t.Fatalf("round %d step %d: Delete(%d): %v", round, step, slot, err)
				}
				delete(model, slot)
			default: // update
				slot := anyKey(model, rng)
				if slot < 0 {
					continue
				}
				n := 1 + rng.Intn(pageSize/4)
				data := make([]byte, n)
				rng.Read(data)
				if s.Update(slot, data) {
					model[slot] = append([]byte(nil), data...)
				}
			}
			// Full equivalence check.
			if s.LiveCells() != len(model) {
				t.Fatalf("round %d step %d: LiveCells=%d, model=%d", round, step, s.LiveCells(), len(model))
			}
			for slot, want := range model {
				got, err := s.Cell(slot)
				if err != nil {
					t.Fatalf("round %d step %d: Cell(%d): %v", round, step, slot, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d step %d: slot %d corrupted", round, step, slot)
				}
			}
		}
	}
}

func anyKey(m map[int][]byte, rng *rand.Rand) int {
	if len(m) == 0 {
		return -1
	}
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys) // deterministic replay
	return keys[rng.Intn(len(keys))]
}

// Property: free bytes + used bytes == page size at all times (after any
// single insert).
func TestSpaceAccountingProperty(t *testing.T) {
	if err := quick.Check(func(sizes []uint8) bool {
		s := newPage(t, 2048)
		for _, raw := range sizes {
			n := int(raw)%200 + 1
			s.Insert(bytes.Repeat([]byte{1}, n))
		}
		return s.UsedBytes()+s.frag()+s.contiguous() == 2048
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSpliceShift: for an edit that inserts or removes bytes at from and
// leaves the rest of the cell alone — a node edit — SpliceShift says so
// exactly when Splice edits the cell where it lies, and the Shift it
// returns is what Splice then does to the page: the tail moved by Delta,
// the inserted bytes in the gap, every other changed byte inside one of
// the small spans. An edit whose tail differs, a cell that keeps its
// size, a field behind from and a cell that has to move are not shifts.
func TestSpliceShift(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	shifts, moved := 0, 0
	for _, size := range []int{512, 2048, 8192} {
		s := newPage(t, size)
		for step := 0; step < 4000; step++ {
			slots := s.Slots()
			if len(slots) < 3 || rng.Intn(10) == 0 {
				data := make([]byte, 8+rng.Intn(size/8))
				rng.Read(data)
				s.Insert(data)
				continue
			}
			slot := slots[rng.Intn(len(slots))]
			cell, _ := s.Cell(slot)
			from := rng.Intn(len(cell) + 1)
			k := 1 + rng.Intn(size/16)
			data := append([]byte(nil), cell[:from]...)
			if rng.Intn(2) == 0 || from+k > len(cell) || len(cell)-k < 8 {
				ins := make([]byte, k)
				rng.Read(ins)
				data = append(append(data, ins...), cell[from:]...)
			} else {
				data = append(data, cell[from+k:]...)
			}
			var fields []int
			for f := rng.Intn(9); f+2 <= from && len(fields) < 4; f += 2 + rng.Intn(40) {
				data[f] ^= 0xFF
				fields = append(fields, f)
			}
			mode := s.spliceMode(slot, len(data))
			spans, sh, ok := s.SpliceShift(nil, slot, data, from, fields)
			if ok != (mode == spliceInPlace) {
				t.Fatalf("step %d: SpliceShift = %v in mode %d", step, ok, mode)
			}
			if !ok {
				if mode != spliceNoFit {
					moved++
					s.Splice(slot, data, from, fields)
				}
				continue
			}
			// What is not a shift, on the same cell.
			if sh.Tail > 0 {
				bent := append([]byte(nil), data...)
				bent[len(bent)-1] ^= 1
				if _, _, ok := s.SpliceShift(nil, slot, bent, from, fields); ok {
					t.Fatalf("step %d: a changed tail passed for a shift", step)
				}
			}
			if _, _, ok := s.SpliceShift(nil, slot, cell, from, nil); ok {
				t.Fatalf("step %d: an edit that keeps the cell's size passed for a shift", step)
			}
			if _, _, ok := s.SpliceShift(nil, slot, data, from, append(fields, from)); ok {
				t.Fatalf("step %d: a field inside the moved bytes passed for a shift", step)
			}

			shifts++
			span, _ := s.CellSpan(slot)
			if sh.Off != span.Off+from || sh.Delta != len(data)-len(cell) || sh.Tail != len(cell)-from-max(-sh.Delta, 0) {
				t.Fatalf("step %d: shift %+v for from %d, %d -> %d bytes at %d", step, sh, from, len(cell), len(data), span.Off)
			}
			before := append([]byte(nil), s.b...)
			if !s.Splice(slot, data, from, fields) {
				t.Fatalf("step %d: Splice refused what SpliceShift accepted", step)
			}
			want := append([]byte(nil), before...)
			if sh.Delta > 0 {
				copy(want[sh.Off+sh.Delta:], before[sh.Off:sh.Off+sh.Tail])
				copy(want[sh.Off:], data[from:from+sh.Delta])
			} else {
				copy(want[sh.Off:], before[sh.Off-sh.Delta:sh.Off-sh.Delta+sh.Tail])
			}
			for _, sp := range spans {
				if sp.Off < sh.Off+sh.Tail+max(sh.Delta, -sh.Delta) && sh.Off < sp.Off+sp.Len {
					t.Fatalf("step %d: span %+v overlaps the shifted bytes %+v", step, sp, sh)
				}
				copy(want[sp.Off:sp.Off+sp.Len], s.b[sp.Off:])
			}
			if !bytes.Equal(want, s.b) {
				t.Fatalf("step %d: the page after Splice is not the shift %+v plus the spans %v", step, sh, spans)
			}
			if body := sh.Body(); body.Off != sh.Off || body.Len != len(data)-from {
				t.Fatalf("step %d: body %+v of shift %+v, %d bytes written", step, body, sh, len(data)-from)
			}
		}
	}
	if shifts < 1000 || moved < 100 {
		t.Fatalf("%d shifts, %d moved cells", shifts, moved)
	}
}
