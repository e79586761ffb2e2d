package noderep

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"natix/internal/dict"
	"natix/internal/records"
)

// aggregate is one aggregate of a record tree with the physical path
// that leads to it.
type aggregate struct {
	node *Node
	path []int
}

func aggregatesOf(root *Node) []aggregate {
	var out []aggregate
	var walk func(n *Node, path []int)
	walk = func(n *Node, path []int) {
		if n.Kind != KindAggregate {
			return
		}
		out = append(out, aggregate{n, append([]int(nil), path...)})
		for i, c := range n.Children {
			walk(c, append(path, i))
		}
	}
	walk(root, nil)
	return out
}

// resolvePath follows a physical path on a tree; nil when it leaves it.
func resolvePath(root *Node, path []int) *Node {
	n := root
	for _, i := range path {
		if n.Kind != KindAggregate || i < 0 || i >= len(n.Children) {
			return nil
		}
		n = n.Children[i]
	}
	return n
}

func hasType(root *Node, k typeKey) bool {
	return typeIndex(collectTypes(root), k) >= 0
}

// checkSplicedImage holds a splice result to the tree-level edit: it
// decodes to want, is as long as want's encoding, and differs from the
// image it was made from only where the Splice says.
func checkSplicedImage(t *testing.T, sp *Splice, before, got []byte, want *Record) {
	t.Helper()
	rec, err := Decode(got)
	if err != nil {
		t.Fatalf("spliced image does not decode: %v", err)
	}
	if !Equal(rec.Root, want.Root) || rec.ParentRID != want.ParentRID {
		t.Fatal("spliced image decodes to a different record than the tree-level edit")
	}
	if len(got) != EncodedSize(want) {
		t.Fatalf("spliced image has %d bytes, a re-encode %d", len(got), EncodedSize(want))
	}
	mask := append([]byte(nil), before[:sp.From]...)
	for _, f := range sp.Fields {
		if f+2 > sp.From {
			t.Fatalf("field %d reaches past From %d", f, sp.From)
		}
		copy(mask[f:f+2], got[f:])
	}
	if !bytes.Equal(mask, got[:sp.From]) {
		t.Fatalf("image changed before From=%d outside Fields=%v", sp.From, sp.Fields)
	}
}

// randomNodeFor returns a node to insert into rec: mostly of a type the
// record already holds, sometimes of a new one, sometimes a small subtree.
func randomNodeFor(rng *rand.Rand, rec *Record) *Node {
	switch rng.Intn(6) {
	case 0:
		return NewProxy(randomRID(rng))
	case 1:
		return NewAggregate(dict.LabelID(3 + rng.Intn(14)))
	case 2:
		n := NewAggregate(dict.LabelID(3 + rng.Intn(6)))
		for i := rng.Intn(3); i >= 0; i-- {
			n.AppendChild(NewTextLiteral("nested text"))
		}
		return n
	default:
		payload := make([]byte, rng.Intn(60))
		rng.Read(payload)
		return NewTextLiteral(string(payload))
	}
}

// TestSpliceMatchesTreeEdit: chains of random inserts and removes applied
// to a record's image by Splice and to its tree by InsertChild and
// RemoveChild stay equal, and a refused splice has one of the stated
// reasons.
func TestSpliceMatchesTreeEdit(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var sp Splice
	const limit = 4000
	spliced, refused := 0, 0
	for i := 0; i < 300; i++ {
		rec := randomRecord(rng)
		if rec.Root.Kind != KindAggregate {
			continue
		}
		img, err := Encode(rec)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 12; step++ {
			aggs := aggregatesOf(rec.Root)
			a := aggs[rng.Intn(len(aggs))]
			before := append([]byte(nil), img...)
			work := append(make([]byte, 0, limit), img...)
			if rng.Intn(3) > 0 || len(a.node.Children) == 0 {
				idx := rng.Intn(len(a.node.Children) + 1)
				n := randomNodeFor(rng, rec)
				newType := false
				n.Walk(func(x *Node) bool {
					newType = newType || !hasType(rec.Root, nodeTypeKey(x))
					return true
				})
				got, ok := sp.Insert(work, append(a.path, idx), n, limit)
				tooBig := len(img)+n.TotalSize() > limit
				if ok == (newType || tooBig) {
					t.Fatalf("record %d step %d: Insert ok=%v with newType=%v tooBig=%v", i, step, ok, newType, tooBig)
				}
				if !ok {
					refused++
					if newType && !tooBig {
						// Take the full path, as core does.
						a.node.InsertChild(idx, n)
						if img, err = Encode(rec); err != nil {
							t.Fatal(err)
						}
					}
					continue
				}
				a.node.InsertChild(idx, n)
				checkSplicedImage(t, &sp, before, got, rec)
				img = append(img[:0], got...)
			} else {
				idx := rng.Intn(len(a.node.Children))
				victim := a.node.Children[idx]
				got, ok := sp.Remove(work, append(a.path, idx))
				a.node.RemoveChild(idx)
				lastOfType := false
				victim.Walk(func(x *Node) bool {
					lastOfType = lastOfType || !hasType(rec.Root, nodeTypeKey(x))
					return true
				})
				if ok == lastOfType {
					t.Fatalf("record %d step %d: Remove ok=%v with lastOfType=%v", i, step, ok, lastOfType)
				}
				if !ok {
					refused++
					if img, err = Encode(rec); err != nil {
						t.Fatal(err)
					}
					continue
				}
				checkSplicedImage(t, &sp, before, got, rec)
				img = append(img[:0], got...)
			}
			spliced++
		}
	}
	if spliced < 1000 || refused < 100 {
		t.Fatalf("matrix too thin: %d spliced, %d refused", spliced, refused)
	}
}

// TestSpliceRefusals: the conditions under which an edit is not a splice.
func TestSpliceRefusals(t *testing.T) {
	rec := &Record{Root: figure2()}
	img, err := Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	var sp Splice
	text := NewTextLiteral("x")
	fresh := func() []byte { return append(make([]byte, 0, 1<<17), img...) }
	if _, ok := sp.Insert(fresh(), []int{0}, text, len(img)+text.TotalSize()); !ok {
		t.Fatal("insert at exactly the limit refused")
	}
	if _, ok := sp.Insert(fresh(), []int{0}, text, len(img)+text.TotalSize()-1); ok {
		t.Fatal("insert past the limit accepted")
	}
	big := NewTextLiteral(string(make([]byte, math.MaxUint16-len(img))))
	if _, ok := sp.Insert(fresh(), []int{0}, big, 1<<17); ok {
		t.Fatal("insert past the 16-bit offsets accepted")
	}
	for _, path := range [][]int{nil, {-1}, {len(rec.Root.Children) + 1}, {0, 0, 0, 0, 0, 0}} {
		if _, ok := sp.Insert(fresh(), path, text, 1<<17); ok {
			t.Fatalf("insert at path %v accepted", path)
		}
		if _, ok := sp.Remove(fresh(), path); ok {
			t.Fatalf("remove at path %v accepted", path)
		}
	}
	if _, ok := sp.Remove(fresh(), []int{len(rec.Root.Children)}); ok {
		t.Fatal("remove of the child past the last accepted")
	}
	if _, ok := sp.Insert(fresh(), []int{0}, NewAggregate(dict.LabelID(900)), 1<<17); ok {
		t.Fatal("insert of a type missing from the table accepted")
	}
	lit := &Record{Root: NewTextLiteral("a lone literal")}
	limg, _ := Encode(lit)
	if _, ok := sp.Insert(limg, []int{0}, text, 1<<17); ok {
		t.Fatal("insert under a literal root accepted")
	}
}

// TestDecodeRejectsWhatMeasureRejects: the shapes the encoder never
// writes are corrupt records to the decoder too — embedded scaffolding
// aggregates and a type table with an unused or a repeated entry. An
// aggregate past offset 65535 was a third while children had to cite it
// in 16 bits; version 2 writes and reads it.
func TestDecodeRejectsWhatMeasureRejects(t *testing.T) {
	good, err := Encode(&Record{Root: NewAggregate(3).AppendChild(NewAggregate(4)).AppendChild(NewTextLiteral("t"))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(good); err != nil {
		t.Fatal(err)
	}
	mutate := func(name string, fn func(b []byte) []byte) {
		t.Helper()
		if _, err := Decode(fn(append([]byte(nil), good...))); !errors.Is(err, ErrCorruptRecord) {
			t.Errorf("%s: Decode error %v, want ErrCorruptRecord", name, err)
		}
	}
	// Type table: 0 = root aggregate(3), 1 = aggregate(4), 2 = text.
	mutate("embedded scaffolding aggregate", func(b []byte) []byte {
		b[recHeaderSize+ttEntrySize*1] |= scaffoldFlag
		return b
	})
	mutate("repeated type entry", func(b []byte) []byte {
		copy(b[recHeaderSize+ttEntrySize:recHeaderSize+2*ttEntrySize], b[recHeaderSize:])
		return b
	})
	mutate("unused type entry", func(b []byte) []byte {
		// Point the embedded aggregate at the root's entry: entry 1 is idle.
		putU16(b[recHeaderSize+3*ttEntrySize+StandaloneHeaderSize:], 0)
		return b
	})

	// An aggregate with a child, its header past offset 65535.
	far := &Record{Root: NewAggregate(3)}
	for size := 0; size <= math.MaxUint16; size += 60000 + EmbeddedHeaderSize {
		far.Root.AppendChild(NewLiteral(5, LitString, make([]byte, 60000)))
	}
	far.Root.AppendChild(NewAggregate(3).AppendChild(NewLiteral(5, LitString, []byte("x"))))
	img, err := Encode(far)
	if err != nil {
		t.Fatal(err)
	}
	if dec, err := Decode(img); err != nil || !Equal(dec.Root, far.Root) {
		t.Fatalf("aggregate past offset 65535 does not round-trip: %v", err)
	}
	if _, err := refEncodeV1(far); !errors.Is(err, ErrTooLarge) {
		t.Errorf("aggregate past offset 65535: version 1 reference error %v, want ErrTooLarge", err)
	}
}

// fuzzNode builds a well-formed node from fuzz arguments.
func fuzzNode(kind uint8, label uint16, payload []byte) *Node {
	switch kind % 4 {
	case 0:
		return NewAggregate(dict.LabelID(label))
	case 1:
		return NewProxy(records.RID{Page: 1 + 7*1024, Slot: label})
	case 2:
		n := NewAggregate(dict.LabelID(label))
		n.AppendChild(NewTextLiteral(string(payload)))
		return n
	default:
		return NewTextLiteral(string(payload))
	}
}

// FuzzSplice feeds Insert and Remove arbitrary images, paths and nodes.
// Whatever the image, neither may panic or write outside the buffer it
// was given; on an image Decode accepts, a splice that is reported done
// decodes to the tree-level edit and has the size of its re-encode; and
// an image of format version 1 is never spliced.
func FuzzSplice(f *testing.F) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 12; i++ {
		rec := randomRecord(rng)
		img, err := Encode(rec)
		if err != nil {
			f.Fatal(err)
		}
		path := []byte{0}
		if aggs := aggregatesOf(rec.Root); len(aggs) > 0 {
			a := aggs[rng.Intn(len(aggs))]
			path = path[:0]
			for _, p := range a.path {
				path = append(path, byte(p))
			}
			path = append(path, byte(rng.Intn(len(a.node.Children)+1)))
		}
		f.Add(img, path, uint8(i), uint16(3+rng.Intn(12)), []byte("payload"))
	}
	fig := &Record{Root: figure2(), ParentRID: records.RID{Page: 77, Slot: 3}}
	img, _ := Encode(fig)
	f.Add(img, []byte{1, 0}, uint8(3), uint16(dict.Text), []byte("between the lines"))
	img, _ = refEncodeV1(fig)
	f.Add(img, []byte{1, 0}, uint8(3), uint16(dict.Text), []byte("between the lines"))
	f.Add(img, []byte{2}, uint8(3), uint16(dict.Text), []byte("at the end"))

	f.Fuzz(func(t *testing.T, image, pathBytes []byte, kind uint8, label uint16, payload []byte) {
		if len(pathBytes) > 16 || len(image) > 1<<16 {
			return
		}
		path := make([]int, len(pathBytes))
		for i, b := range pathBytes {
			path[i] = int(int8(b))
		}
		n := fuzzNode(kind, label, payload)
		const limit = 1 << 15
		var sp Splice
		// A canary behind the working buffer: the splice owns cap(work).
		buf := make([]byte, max(len(image), limit)+8)
		copy(buf, image)
		canary := buf[len(buf)-8:]
		copy(canary, "CANARY!!")
		work := buf[: len(image) : len(buf)-8]
		inserted, okIns := sp.Insert(work, path, n, limit)
		insFrom := sp.From
		if string(canary) != "CANARY!!" {
			t.Fatal("Insert wrote past the buffer it was given")
		}
		rec, err := Decode(image)
		if err != nil {
			// Only the no-panic, no-overrun property holds; Remove too.
			sp.Remove(append([]byte(nil), image...), path)
			return
		}
		parent := resolvePath(rec.Root, path[:max(len(path)-1, 0)])
		idx := -1
		if len(path) > 0 {
			idx = path[len(path)-1]
		}
		if okIns {
			if parent == nil || parent.Kind != KindAggregate || idx < 0 || idx > len(parent.Children) {
				t.Fatalf("Insert at unresolvable path %v reported done", path)
			}
			if insFrom > len(inserted) {
				t.Fatalf("From %d past the image", insFrom)
			}
			want, _ := Decode(image)
			resolvePath(want.Root, path[:len(path)-1]).InsertChild(idx, n.Clone())
			got, err := Decode(inserted)
			if err != nil {
				t.Fatalf("spliced image does not decode: %v", err)
			}
			if !Equal(got.Root, want.Root) || got.ParentRID != want.ParentRID {
				t.Fatal("Insert: spliced image differs from the tree-level insert")
			}
			if len(inserted) != EncodedSize(want) || len(inserted) > limit {
				t.Fatalf("Insert: %d bytes, re-encode %d, limit %d", len(inserted), EncodedSize(want), limit)
			}
		}
		removed, okRem := sp.Remove(append([]byte(nil), image...), path)
		if image[0] == formatVersion1 && (okIns || okRem) {
			t.Fatalf("version 1 image spliced (insert %v, remove %v)", okIns, okRem)
		}
		if okRem {
			if parent == nil || parent.Kind != KindAggregate || idx < 0 || idx >= len(parent.Children) {
				t.Fatalf("Remove at unresolvable path %v reported done", path)
			}
			parent.RemoveChild(idx)
			got, err := Decode(removed)
			if err != nil {
				t.Fatalf("image after Remove does not decode: %v", err)
			}
			if !Equal(got.Root, rec.Root) || len(removed) != EncodedSize(rec) {
				t.Fatal("Remove: spliced image differs from the tree-level remove")
			}
		}
	})
}

// BenchmarkSplice is the node-edit write path in noderep alone: one text
// node added in the middle of a 200-node record, against the measure and
// emit of the whole record it replaced.
func BenchmarkSplice(b *testing.B) {
	rec := &Record{Root: benchTree(100)} // 100 LINE elements, 100 texts
	img, err := Encode(rec)
	if err != nil {
		b.Fatal(err)
	}
	line := NewTextLiteral("a line of verse of the usual length, more or less")
	b.Run("splice", func(b *testing.B) {
		var sp Splice
		work := make([]byte, 0, 1<<14)
		path := []int{50, 1}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			work = append(work[:0], img...)
			if _, ok := sp.Insert(work, path, line, 1<<14); !ok {
				b.Fatal("not spliceable")
			}
		}
	})
	b.Run("measure+emit", func(b *testing.B) {
		var l Layout
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := Measure(rec, &l); err != nil {
				b.Fatal(err)
			}
			if buf, err = l.Emit(buf, rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}
