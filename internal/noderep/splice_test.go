package noderep

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
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

// hasType reports whether root's version 3 image has k in its table.
func hasType(root *Node, k typeKey) bool {
	return typeIndex(tableTypes(root), k) >= 0
}

// hasAllTypes reports whether root's table has the type of every node of
// n's subtree that is written with a header.
func hasAllTypes(root, n *Node) bool {
	for _, k := range tableTypes5(n) {
		if !hasType(root, k) {
			return false
		}
	}
	return true
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
	// Behind From the image moved as a whole: the edit is one insertion or
	// removal there, which the log can say as a shift.
	if d := len(got) - len(before); d >= 0 && !bytes.Equal(got[sp.From+d:], before[sp.From:]) ||
		d < 0 && !bytes.Equal(got[sp.From:], before[sp.From-d:]) {
		t.Fatalf("the image behind From=%d did not move as a whole by %d", sp.From, d)
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
// RemoveChild stay equal, and a splice is refused for the stated reasons
// and no other: a type the table lacks or would lose, the limit, and an
// edit that fuses or unfuses a text other than by putting it into an
// empty element or taking it out of a text-only one.
func TestSpliceMatchesTreeEdit(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var sp Splice
	const limit = 4000
	spliced, refused, fusing, unfusing, refusedFusing := 0, 0, 0, 0, 0
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
			var got []byte
			var ok bool
			if rng.Intn(3) > 0 || len(a.node.Children) == 0 {
				idx := rng.Intn(len(a.node.Children) + 1)
				n := randomNodeFor(rng, rec)
				intoFused := a.node.FusedText() != nil
				got, ok = sp.Insert(work, append(a.path, idx), n, limit)
				a.node.InsertChild(idx, n)
				fuses := a.node.FusedText() != nil
				newType := !fuses && !hasAllTypes(rec.Root, n)
				if !intoFused && !fuses {
					// n's types count only if they were there before it came.
					a.node.RemoveChild(idx)
					newType = !hasAllTypes(rec.Root, n)
					a.node.InsertChild(idx, n)
				}
				tooBig := EncodedSize(rec) > limit
				if ok == (newType || tooBig || intoFused) {
					t.Fatalf("record %d step %d: Insert ok=%v with newType=%v tooBig=%v intoFused=%v", i, step, ok, newType, tooBig, intoFused)
				}
				if ok && fuses {
					fusing++
				}
				if intoFused {
					refusedFusing++
				}
				if tooBig {
					a.node.RemoveChild(idx)
				}
			} else {
				idx := rng.Intn(len(a.node.Children))
				victim := a.node.Children[idx]
				wasFused := a.node.FusedText() != nil
				got, ok = sp.Remove(work, append(a.path, idx))
				a.node.RemoveChild(idx)
				lastOfType := !wasFused && !hasAllTypes(rec.Root, victim)
				leavesText := a.node.FusedText() != nil
				if ok == (lastOfType || leavesText) {
					t.Fatalf("record %d step %d: Remove ok=%v with lastOfType=%v leavesText=%v", i, step, ok, lastOfType, leavesText)
				}
				if ok && wasFused {
					unfusing++
				}
				if leavesText {
					refusedFusing++
				}
			}
			if !ok {
				// Take the full path, as core does.
				refused++
				if img, err = Encode(rec); err != nil {
					t.Fatal(err)
				}
				continue
			}
			checkSplicedImage(t, &sp, before, got, rec)
			img = append(img[:0], got...)
			spliced++
		}
	}
	if spliced < 1000 || refused < 100 || fusing < 20 || unfusing < 20 || refusedFusing < 20 {
		t.Fatalf("matrix too thin: %d spliced (%d fusing, %d unfusing), %d refused (%d for the text they would fuse or unfuse)",
			spliced, fusing, unfusing, refused, refusedFusing)
	}
}

// TestSpliceRefusals: the conditions under which an edit is not a splice.
func TestSpliceRefusals(t *testing.T) {
	// The paper's speech with a text of its own behind the lines, so that
	// the table holds the #text type (the lines' texts are fused and cite
	// none).
	rec := &Record{Root: figure2().AppendChild(NewTextLiteral("Exit"))}
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
	// No record grows past what a 15-bit content size can hold.
	big := NewTextLiteral(string(make([]byte, maxContentSize-len(img)-3))) // a long size
	if got, ok := sp.Insert(fresh(), []int{0}, big, 1<<17); !ok || len(got) != maxContentSize {
		t.Fatalf("insert up to the 15-bit sizes refused (ok %v)", ok)
	}
	big.Payload = append(big.Payload, 0)
	if _, ok := sp.Insert(fresh(), []int{0}, big, 1<<17); ok {
		t.Fatal("insert past the 15-bit sizes accepted")
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

	// Fusing and unfusing. A second child on either side of the text of a
	// text-only element would give the text its header back, which is not
	// the same insert; so would, backwards, the removal of a text's last
	// sibling. The text itself comes out of its element, and goes back in,
	// as a splice; below the text there is nothing to address.
	for _, path := range [][]int{{1, 0}, {1, 1}} {
		if _, ok := sp.Insert(fresh(), path, text, 1<<17); ok {
			t.Fatalf("insert at %v, beside the text of a fused element, accepted", path)
		}
	}
	if _, ok := sp.Remove(fresh(), []int{1, 1}); ok {
		t.Fatal("remove of a second child of a fused element accepted")
	}
	if _, ok := sp.Remove(fresh(), []int{1, 0, 0}); ok {
		t.Fatal("remove below the text of a fused element accepted")
	}
	empty, ok := sp.Remove(fresh(), []int{1, 0})
	if !ok {
		t.Fatal("remove of the text of a fused element refused")
	}
	line1 := rec.Root.Children[1].RemoveChild(0)
	checkSplicedImage(t, &sp, img, empty, rec)
	before := append([]byte(nil), empty...)
	again, ok := sp.Insert(append(make([]byte, 0, 1<<17), empty...), []int{1, 0}, line1, 1<<17)
	if !ok {
		t.Fatal("insert of a text into an empty element refused")
	}
	rec.Root.Children[1].AppendChild(line1)
	checkSplicedImage(t, &sp, before, again, rec)
	if !bytes.Equal(again, img) {
		t.Fatal("the text taken out and put back does not give the image back")
	}
	two := &Record{Root: NewAggregate(lSpeech).AppendChild(NewTextLiteral("some")).AppendChild(NewTextLiteral("words"))}
	timg, _ := Encode(two)
	if _, ok := sp.Remove(append([]byte(nil), timg...), []int{0}); ok {
		t.Fatal("remove of the last sibling of a text accepted")
	}
	// Under a scaffolding root nothing fuses: the same removal is a splice.
	two.Root.Scaffold, two.Root.Label = true, dict.Scaffold
	timg, _ = Encode(two)
	if _, ok := sp.Remove(append([]byte(nil), timg...), []int{0}); !ok {
		t.Fatal("remove of the last sibling of a text under a scaffolding root refused")
	}
	// The record root fuses through its flags byte.
	root := &Record{Root: NewAggregate(lLine), ParentRID: records.RID{Page: 3, Slot: 1}}
	rimg, _ := Encode(root)
	before = append([]byte(nil), rimg...)
	fused, ok := sp.Insert(append(make([]byte, 0, 64), rimg...), []int{0}, text, 64)
	if !ok {
		t.Fatal("insert of a text into an empty root element refused")
	}
	root.Root.AppendChild(text)
	checkSplicedImage(t, &sp, before, fused, root)
	if want, _ := Encode(root); !bytes.Equal(fused, want) || !slices.Equal(sp.Fields, []int{0}) {
		t.Fatalf("fused root: fields %v, image differs from the encoder's: %v", sp.Fields, !bytes.Equal(fused, want))
	}
	unfusedRoot, ok := sp.Remove(append([]byte(nil), fused...), []int{0})
	if !ok || !bytes.Equal(unfusedRoot, rimg) {
		t.Fatalf("remove of the text of a fused root: ok %v", ok)
	}
}

// TestDecodeRejectsWhatMeasureRejects: the shapes the encoder never
// writes are corrupt records to the decoder too — embedded scaffolding
// aggregates, a type table with an unused or a repeated entry or with
// bits set that no node type has, a text-only element written out as two
// nodes, the fused mark on anything but a facade aggregate, a size in a
// longer form than it needs, the wide flag on a table that does not need
// it, a flag format 4 does not define, and an image of an older version
// (Upgrade reads those). An aggregate past offset 65535 was one more
// while children had to cite it in 16 bits; since version 2 it is
// written and read.
func TestDecodeRejectsWhatMeasureRejects(t *testing.T) {
	good, err := Encode(&Record{Root: NewAggregate(3).AppendChild(NewAggregate(4)).AppendChild(NewTextLiteral("t"))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(good); err != nil {
		t.Fatal(err)
	}
	mutateOf := func(good []byte, name string, fn func(b []byte) []byte) {
		t.Helper()
		if _, err := Decode(fn(append([]byte(nil), good...))); !errors.Is(err, ErrCorruptRecord) {
			t.Errorf("%s: Decode error %v, want ErrCorruptRecord", name, err)
		}
	}
	mutate := func(name string, fn func(b []byte) []byte) { t.Helper(); mutateOf(good, name, fn) }
	// Type table: 0 = root aggregate(3), 1 = aggregate(4), 2 = text. The
	// embedded aggregate's header is its type byte and a 2-byte size; the
	// text's, behind it, its type byte and a 1-byte size.
	first := recHeaderSize + 3*ttEntrySize + StandaloneHeaderSize
	text := first + 3
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
		b[first] = 0
		return b
	})
	mutate("a proxy's entry in the table", func(b []byte) []byte {
		b[recHeaderSize+ttEntrySize*1] = proxyFlags
		return b
	})
	mutate("literal type on an aggregate", func(b []byte) []byte {
		// Two such entries would be one on a re-encode (FuzzDecode's seed
		// type-entry-unknown-bits is an image of that kind).
		b[recHeaderSize+ttEntrySize*1] |= byte(LitURI) << litShift
		return b
	})
	mutate("fused mark on a literal", func(b []byte) []byte {
		b[text] |= narrowFused
		return b
	})
	mutate("size in the long form under 128", func(b []byte) []byte {
		return append(append(b[:text+1:text+1], byte(b[text+1])|longSize, 0), b[text+2:]...)
	})
	mutate("fused root flag on an aggregate with children", func(b []byte) []byte {
		// The content, two headers and a byte, would be the text: the types
		// the headers cited are then unused.
		b[1] = rootFusedFlag
		return b
	})
	mutate("wide flag on a narrow table", func(b []byte) []byte {
		b[1] = wideFlag
		return b
	})
	mutate("unknown flag", func(b []byte) []byte {
		b[1] = 0x04
		return b
	})
	mutate("an image of version 3", func(b []byte) []byte {
		b[0] = formatVersion3
		return b
	})
	// The same image with the mark on the (empty) embedded aggregate, and
	// its size in the one byte a fused element's takes, is a record: an
	// element with an empty text.
	marked := append(append(good[:first:first], byte(1|narrowFused), 0), good[first+3:]...)
	if rec, err := Decode(marked); err != nil || rec.Root.Children[0].FusedText() == nil {
		t.Errorf("fused mark on an empty facade aggregate: %v", err)
	}

	// A text-only element written out in full: a version 2 image is a
	// record to the upgrade, the same bytes called version 3 are not, and
	// neither is format 4's shape of it — the element's 2-byte size, the
	// text's header — to Decode.
	pair := &Record{Root: NewAggregate(3).AppendChild(NewAggregate(4).AppendChild(NewTextLiteral("t")))}
	unfused, err := refEncodeV2(pair)
	if err != nil {
		t.Fatal(err)
	}
	if rec, _, err := Upgrade(unfused); err != nil || !Equal(rec.Root, pair.Root) {
		t.Fatalf("version 2 image of a text-only element: %v", err)
	}
	unfused[0] = formatVersion3
	if _, _, err := Upgrade(unfused); !errors.Is(err, ErrCorruptRecord) {
		t.Errorf("unfused text-only element in a version 3 image: %v", err)
	}
	v4 := []byte{FormatVersion, 0, 3, 0}
	for _, k := range []typeKey{nodeTypeKey(pair.Root), nodeTypeKey(pair.Root.Children[0]), textKey} {
		v4 = append(v4, k.kindFlags, byte(k.label), byte(k.label>>8), byte(k.litType))
	}
	v4 = append(v4, make([]byte, StandaloneHeaderSize)...)
	v4 = append(v4, 1, 3, 0, 2, 1, 't')
	mutateOf(v4, "unfused text-only element", func(b []byte) []byte { return b })
	scaf := &Record{Root: NewScaffoldAggregate().AppendChild(NewTextLiteral("t"))}
	simg, err := Encode(scaf)
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := Decode(simg); err != nil || !Equal(rec.Root, scaf.Root) || simg[1] != 0 {
		t.Fatalf("a text alone under a scaffolding root is not fused: flags %#x, err %v", simg[1], err)
	}
	mutateOf(simg, "fused root flag on a scaffolding aggregate", func(b []byte) []byte {
		b[1] = rootFusedFlag
		return b
	})

	// An aggregate with a child, its header past offset 65535 (literals of
	// 30 000 bytes in front of it, 60 000 while a size had 16 bits).
	far := &Record{Root: NewAggregate(3)}
	for size := 0; size <= math.MaxUint16; size += 30000 + 3 {
		far.Root.AppendChild(NewLiteral(5, LitString, make([]byte, 30000)))
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
// decodes to the tree-level edit — which Decode holds to the canonical
// form, every text-only element fused and nothing else — and has the
// size of its re-encode; and an image of an older format version, or one
// with two-byte type indexes, is never spliced.
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
	f.Add(img, []byte{2}, uint8(2), uint16(lLine), bytes.Repeat([]byte("a line past the short size form "), 5))
	wide := NewAggregate(lSpeech)
	for i := 0; i <= narrowTypes; i++ {
		wide.AppendChild(NewAggregate(dict.LabelID(100 + i)))
	}
	img, _ = Encode(&Record{Root: wide})
	f.Add(img, []byte{1}, uint8(0), uint16(100), []byte(nil))
	// Fusing and unfusing: the text out of a text-only element (the
	// Remove of {1, 0}) and a second child beside it (the Insert), on the
	// first seed above already; a text into an empty element, embedded and
	// at the record root, and the text out again; the removal that leaves a
	// text alone; a text of the long size form out of its element.
	speech := figure2()
	speech.Children[1].RemoveChild(0)
	img, _ = Encode(&Record{Root: speech})
	f.Add(img, []byte{1, 0}, uint8(3), uint16(dict.Text), []byte("Let me see your eyes;"))
	f.Add(img, []byte{0, 1}, uint8(0), uint16(lLine), []byte("a second child into a fused element"))
	img, _ = Encode(&Record{Root: NewAggregate(lLine), ParentRID: records.RID{Page: 9}})
	f.Add(img, []byte{0}, uint8(3), uint16(dict.Text), []byte("into the root"))
	img, _ = Encode(&Record{Root: NewAggregate(lLine).AppendChild(NewTextLiteral("out of the root"))})
	f.Add(img, []byte{0}, uint8(0), uint16(lLine), []byte("or a sibling before it"))
	img, _ = Encode(&Record{Root: NewAggregate(lSpeech).AppendChild(NewAggregate(lLine).AppendChild(NewTextLiteral("a")).AppendChild(NewTextLiteral("b")))})
	f.Add(img, []byte{0, 1}, uint8(3), uint16(dict.Text), []byte("c"))
	img, _ = Encode(&Record{Root: NewAggregate(lSpeech).AppendChild(NewAggregate(lLine).AppendChild(NewTextLiteral(strings.Repeat("long ", 30))))})
	f.Add(img, []byte{0, 0}, uint8(3), uint16(dict.Text), []byte("x"))

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
		if (image[0] != FormatVersion || image[1]&wideFlag != 0) && (okIns || okRem) {
			t.Fatalf("version %d image with flags %#x spliced (insert %v, remove %v)", image[0], image[1], okIns, okRem)
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

// BenchmarkSplice is the node-edit write path in noderep alone: a line
// of verse added in the middle of a 200-node record — as an element with
// its text (53 bytes; while texts had headers the benchmark added the
// text beside another, the same 53), and as a text into an element that
// is there and empty, which is how a document built breadth-first gets
// every one of its texts — against the measure and emit of the whole
// record that a splice replaced.
func BenchmarkSplice(b *testing.B) {
	rec := &Record{Root: benchTree(100)} // 100 LINE elements, 100 texts
	verse := "a line of verse of the usual length, more or less"
	run := func(name string, rec *Record, path []int, n *Node) {
		img, err := Encode(rec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var sp Splice
			work := make([]byte, 0, 1<<14)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				work = append(work[:0], img...)
				if _, ok := sp.Insert(work, path, n, 1<<14); !ok {
					b.Fatal("not spliceable")
				}
			}
		})
	}
	run("splice", rec, []int{50}, NewAggregate(dict.LabelID(4)).AppendChild(NewTextLiteral(verse)))
	hollow := &Record{Root: benchTree(100)}
	hollow.Root.Children[50].RemoveChild(0)
	run("text-into-empty-element", hollow, []int{50, 0}, NewTextLiteral(verse))
	b.Run("measure+emit", func(b *testing.B) {
		var l Layout
		var buf []byte
		var err error
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
