package pageformat

import (
	"bytes"
	"math/rand"
	"testing"
)

// refUpdate is Slotted.Update as it stood before Splice: a growing cell
// is always retired and rewritten at the end of the cell area. Kept as
// the reference the differential test below holds Splice to — the two
// may lay a page out differently, never account it differently.
func refUpdate(s Slotted, slot int, data []byte) bool {
	if !s.CanUpdate(slot, len(data)) {
		return false
	}
	off, length, flag := s.slot(slot)
	if len(data) <= length {
		copy(s.b[off:], data)
		s.setFrag(s.frag() + length - len(data))
		s.setSlot(slot, off, len(data), flag)
		return true
	}
	// Grow: retire the old cell, then place the new bytes.
	s.setFrag(s.frag() + length)
	s.setSlot(slot, 0, 0, false)
	if s.contiguous() < len(data) {
		s.compact()
	}
	noff := s.cellEnd()
	copy(s.b[noff:], data)
	s.setCellEnd(noff + len(data))
	s.setSlot(slot, noff, len(data), flag)
	return true
}

// sameCells compares two pages slot by slot: liveness, flag, contents.
func sameCells(t *testing.T, a, b Slotted) {
	t.Helper()
	if a.SlotCount() != b.SlotCount() || a.FreeBytes() != b.FreeBytes() || a.UsedBytes() != b.UsedBytes() {
		t.Fatalf("pages account differently: slots %d/%d free %d/%d used %d/%d",
			a.SlotCount(), b.SlotCount(), a.FreeBytes(), b.FreeBytes(), a.UsedBytes(), b.UsedBytes())
	}
	for i := 0; i < a.SlotCount(); i++ {
		ca, ea := a.Cell(i)
		cb, eb := b.Cell(i)
		if (ea == nil) != (eb == nil) || !bytes.Equal(ca, cb) {
			t.Fatalf("slot %d differs: %v / %v", i, ea, eb)
		}
		if ea == nil {
			fa, _ := a.Flag(i)
			fb, _ := b.Flag(i)
			if fa != fb {
				t.Fatalf("slot %d flag differs", i)
			}
		}
	}
}

// editOf derives new contents from a cell the way a record splice does:
// bytes removed or inserted at from, and a few two-byte fields before it
// changed. It returns the contents with from and the field offsets.
func editOf(rng *rand.Rand, cell []byte, grow int) (data []byte, from int, fields []int) {
	from = rng.Intn(len(cell) + 1)
	data = append([]byte(nil), cell[:from]...)
	if grow >= 0 {
		ins := make([]byte, grow)
		rng.Read(ins)
		data = append(append(data, ins...), cell[from:]...)
	} else {
		data = append(data, cell[min(from-grow, len(cell)):]...)
	}
	// Past from everything may differ, as after a shift with fix-ups.
	for i := from; i < len(data); i += 1 + rng.Intn(7) {
		data[i] ^= 0x11
	}
	for f := rng.Intn(9); f+2 <= from && len(fields) < 4; f += 2 + rng.Intn(40) {
		data[f] ^= 0xFF
		data[f+1] ^= 0x0F
		fields = append(fields, f)
	}
	return data, from, fields
}

// TestSpliceMatchesReferenceUpdate runs random inserts, deletes and cell
// edits on twin pages, one edited with Splice (told where the contents
// differ) and one with the reference Update: after every step both hold
// the same cells and the same free space, Splice reports no-fit exactly
// when Update does, and every byte Splice changed lies in a span
// SpliceSpans declared beforehand.
func TestSpliceMatchesReferenceUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	modes := map[spliceMode]int{}
	for _, size := range []int{512, 2048, 8192} {
		a, b := newPage(t, size), newPage(t, size)
		for step := 0; step < 6000; step++ {
			slots := a.Slots()
			switch op := rng.Intn(10); {
			case op < 2 || len(slots) == 0:
				data := make([]byte, 8+rng.Intn(size/6))
				rng.Read(data)
				sa, oka := a.Insert(data)
				sb, okb := b.Insert(data)
				if oka != okb || sa != sb {
					t.Fatalf("Insert diverged: %d/%v vs %d/%v", sa, oka, sb, okb)
				}
			case op < 3:
				slot := slots[rng.Intn(len(slots))]
				if a.Delete(slot) != nil || b.Delete(slot) != nil {
					t.Fatal("Delete failed")
				}
			default:
				slot := slots[rng.Intn(len(slots))]
				cell, _ := a.Cell(slot)
				grow := rng.Intn(size/8) - size/32
				if len(cell)+grow < 8 {
					grow = 0
				}
				data, from, fields := editOf(rng, cell, grow)
				mode := a.spliceMode(slot, len(data))
				modes[mode]++
				spans, ok := a.SpliceSpans(nil, slot, len(data), from, fields)
				before := append([]byte(nil), a.b...)
				if got := a.Splice(slot, data, from, fields); got != ok {
					t.Fatalf("Splice = %v, SpliceSpans said %v", got, ok)
				}
				if refUpdate(b, slot, data) != ok {
					t.Fatalf("step %d: Splice fits=%v, reference Update disagrees", step, ok)
				}
				if !ok {
					if !bytes.Equal(before, a.b) {
						t.Fatal("refused Splice changed the page")
					}
					continue
				}
				if len(spans) > 0 {
					declared := make([]bool, size)
					for _, sp := range spans {
						for i := sp.Off; i < sp.Off+sp.Len; i++ {
							if declared[i] {
								t.Fatalf("spans %v overlap at %d", spans, i)
							}
							declared[i] = true
						}
					}
					for i := range before {
						if before[i] != a.b[i] && !declared[i] {
							t.Fatalf("step %d mode %d: byte %d changed outside the declared spans %v", step, mode, i, spans)
						}
					}
				} else if mode != spliceCompact {
					t.Fatalf("mode %d declared the whole page", mode)
				}
			}
			sameCells(t, a, b)
		}
	}
	for _, m := range []spliceMode{spliceNoFit, spliceInPlace, spliceRelocate, spliceCompact} {
		if modes[m] < 50 {
			t.Fatalf("mode %d exercised %d times: %v", m, modes[m], modes)
		}
	}
}
