package noderep

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"natix/internal/dict"
	"natix/internal/pagedev"
	"natix/internal/records"
)

// randomRecord builds a well-formed record of every shape the tree
// manager produces: facade or scaffolding root, literals of every type
// (empty payloads included), proxies, empty aggregates, few or many
// distinct labels.
func randomRecord(rng *rand.Rand) *Record {
	labels := 1 + rng.Intn(12)
	budget := 1 + rng.Intn(120)
	var build func(depth int) *Node
	build = func(depth int) *Node {
		budget--
		switch k := rng.Intn(10); {
		case k < 4 && depth < 6:
			n := NewAggregate(dict.LabelID(3 + rng.Intn(labels)))
			for kids := rng.Intn(7); kids > 0 && budget > 0; kids-- {
				n.AppendChild(build(depth + 1))
			}
			return n
		case k < 5:
			return NewProxy(randomRID(rng))
		case k < 7:
			payload := make([]byte, rng.Intn(40))
			rng.Read(payload)
			return NewLiteral(dict.LabelID(3+rng.Intn(labels)), LitType(rng.Intn(int(LitLongString)+1)), payload)
		default:
			return NewTextLiteral(string(make([]byte, rng.Intn(30))))
		}
	}
	var root *Node
	switch rng.Intn(4) {
	case 0: // partition record: scaffolding root over a run of siblings
		root = NewScaffoldAggregate()
		for kids := 1 + rng.Intn(6); kids > 0; kids-- {
			root.AppendChild(build(1))
		}
	case 1: // a lone literal or proxy standing alone
		root = build(99)
	default:
		root = NewAggregate(dict.LabelID(3 + rng.Intn(labels)))
		for kids := rng.Intn(9); kids > 0 && budget > 0; kids-- {
			root.AppendChild(build(1))
		}
	}
	rec := &Record{Root: root}
	if rng.Intn(2) == 0 {
		rec.ParentRID = randomRID(rng)
	}
	return rec
}

func randomRID(rng *rand.Rand) records.RID {
	return records.RID{Page: pagedev.PageNo(1 + rng.Intn(1<<20)), Slot: uint16(rng.Intn(200))}
}

// typeSetOf accounts a subtree's types the way the bulk builder does: one
// AddNode per node.
func typeSetOf(root *Node) *TypeSet {
	ts := NewTypeSet()
	root.Walk(func(n *Node) bool { ts.AddNode(n); return true })
	return ts
}

// checkSameEncoding holds every production entry point to the reference
// encoder's bytes for one well-formed record.
func checkSameEncoding(t *testing.T, rec *Record) {
	t.Helper()
	want, err := refEncode(rec)
	if err != nil {
		t.Fatalf("reference rejects a well-formed record: %v", err)
	}
	if got := EncodedSize(rec); got != len(want) || got != refEncodedSize(rec) {
		t.Fatalf("EncodedSize = %d, reference %d, image %d bytes", got, refEncodedSize(rec), len(want))
	}
	got, err := Encode(rec)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Encode differs from reference (err %v)\n got %x\nwant %x", err, got, want)
	}
	types := len(collectTypes(rec.Root))
	if off := RecordParentRIDOffset(rec); off != ParentRIDOffset(types) {
		t.Fatalf("RecordParentRIDOffset after Encode = %d, want %d", off, ParentRIDOffset(types))
	}
	if off := RecordParentRIDOffset(&Record{Root: rec.Root}); off != ParentRIDOffset(types) {
		t.Fatalf("RecordParentRIDOffset of an unencoded record = %d, want %d", off, ParentRIDOffset(types))
	}

	// The tree manager's path: a reused layout, and an image buffer still
	// holding another record's bytes.
	var l Layout
	if err := Measure(&Record{Root: NewTextLiteral("previous occupant")}, &l); err != nil {
		t.Fatal(err)
	}
	if err := Measure(rec, &l); err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if l.Size() != len(want) {
		t.Fatalf("Layout.Size = %d, want %d", l.Size(), len(want))
	}
	dirty := bytes.Repeat([]byte{0xAB}, len(want)+17)
	got, err = l.Emit(dirty, rec)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Measure+Emit into a used buffer differs from reference (err %v)", err)
	}

	// The bulk loader's path: type set and content size accounted by the
	// caller, indexes resolved by key.
	got, err = EncodeWith(nil, rec, typeSetOf(rec.Root), rec.Root.ContentSize())
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("EncodeWith differs from reference (err %v)", err)
	}

	dec, err := Decode(want)
	if err != nil || !Equal(dec.Root, rec.Root) || dec.ParentRID != rec.ParentRID {
		t.Fatalf("Decode(Encode(rec)) does not round-trip (err %v)", err)
	}
	if off := RecordParentRIDOffset(dec); off != ParentRIDOffset(types) {
		t.Fatalf("RecordParentRIDOffset after Decode = %d, want %d", off, ParentRIDOffset(types))
	}
}

func TestEncodeMatchesReference(t *testing.T) {
	checkSameEncoding(t, &Record{Root: figure2(), ParentRID: records.RID{Page: 9, Slot: 1}})
	checkSameEncoding(t, &Record{Root: NewAggregate(dict.LabelID(3))})  // empty aggregate
	checkSameEncoding(t, &Record{Root: NewTextLiteral("")})             // empty literal
	checkSameEncoding(t, &Record{Root: NewProxy(records.RID{Page: 4})}) // lone proxy
	checkSameEncoding(t, &Record{Root: NewScaffoldAggregate()})         // scaffolding root
	checkSameEncoding(t, &Record{Root: benchTree(200), ParentRID: records.RID{Page: 2}})

	rng := rand.New(rand.NewSource(2000))
	for i := 0; i < 1500; i++ {
		checkSameEncoding(t, randomRecord(rng))
	}

	// Records sized to the byte, as a full page's record is: the last
	// literal is padded until the image is exactly the target.
	for _, target := range []int{2048 - 40, 8192 - 44, 8192 - 43, 32768 - 44} {
		rec := &Record{Root: benchTree(20), ParentRID: records.RID{Page: 3, Slot: 3}}
		pad := NewTextLiteral("")
		rec.Root.AppendChild(pad)
		pad.Payload = make([]byte, target-EncodedSize(rec))
		if EncodedSize(rec) != target {
			t.Fatalf("padding produced %d bytes, want %d", EncodedSize(rec), target)
		}
		checkSameEncoding(t, rec)
	}

	// The 16-bit limits from the inside: a child of exactly 65535 content
	// bytes, and an empty aggregate whose header sits at offset 65535.
	big := NewAggregate(dict.LabelID(3))
	big.AppendChild(NewTextLiteral(string(make([]byte, math.MaxUint16))))
	checkSameEncoding(t, &Record{Root: big})
	edge := NewAggregate(dict.LabelID(3))
	edge.AppendChild(NewTextLiteral(""))
	edge.AppendChild(NewAggregate(dict.LabelID(4)))
	fill := math.MaxUint16 - RecordOverhead(3) - EmbeddedHeaderSize
	edge.Children[0].Payload = make([]byte, fill)
	edge.Children[1].AppendChild(NewTextLiteral("x")) // its header offset is the child's parent offset
	checkSameEncoding(t, &Record{Root: edge})
}

// TestEncodeErrorsMatchReference feeds both encoders every malformed or
// oversized shape they reject; they must agree on the sentinel and the
// message.
func TestEncodeErrorsMatchReference(t *testing.T) {
	agg := func(kids ...*Node) *Node {
		n := NewAggregate(dict.LabelID(3))
		for _, k := range kids {
			n.AppendChild(k)
		}
		return n
	}
	stale := agg(NewTextLiteral("a"))
	stale.Children[0].Parent = nil
	litKids := NewTextLiteral("a")
	litKids.Children = []*Node{NewTextLiteral("b")}
	proxyKids := NewProxy(records.RID{Page: 1})
	proxyKids.Children = []*Node{NewTextLiteral("b")}
	proxyPayload := NewProxy(records.RID{Page: 1})
	proxyPayload.Payload = []byte("p")
	aggPayload := agg()
	aggPayload.Payload = []byte("p")
	tooFar := agg(NewTextLiteral(string(make([]byte, math.MaxUint16))), agg(NewTextLiteral("x")))

	cases := []struct {
		name string
		rec  *Record
		want error
	}{
		{"nil root", &Record{}, ErrBadNode},
		{"aggregate with payload", &Record{Root: agg(aggPayload)}, ErrBadNode},
		{"stale parent link", &Record{Root: stale}, ErrBadNode},
		{"literal with children", &Record{Root: agg(litKids)}, ErrBadNode},
		{"proxy with children", &Record{Root: agg(proxyKids)}, ErrBadNode},
		{"proxy with payload", &Record{Root: agg(proxyPayload)}, ErrBadNode},
		{"proxy with nil target", &Record{Root: agg(NewProxy(records.NilRID))}, ErrBadNode},
		{"invalid kind", &Record{Root: agg(&Node{Kind: KindInvalid})}, ErrBadNode},
		{"unknown kind at the root", &Record{Root: &Node{Kind: Kind(7)}}, ErrBadNode},
		{"embedded scaffolding aggregate", &Record{Root: agg(NewScaffoldAggregate())}, ErrBadNode},
		{"malformed and oversized", &Record{Root: agg(NewTextLiteral(string(make([]byte, math.MaxUint16+1))), litKids)}, ErrBadNode},
		{"child content past 16 bits", &Record{Root: agg(NewTextLiteral(string(make([]byte, math.MaxUint16+1))))}, ErrTooLarge},
		{"nested content past 16 bits", &Record{Root: agg(agg(NewTextLiteral(string(make([]byte, math.MaxUint16-5)))))}, ErrTooLarge},
		{"parent offset past 16 bits", &Record{Root: tooFar}, ErrTooLarge},
	}
	for _, c := range cases {
		_, refErr := refEncode(c.rec)
		_, err := Encode(c.rec)
		if !errors.Is(refErr, c.want) {
			t.Fatalf("%s: reference error %v, want %v", c.name, refErr, c.want)
		}
		if !errors.Is(err, c.want) || err.Error() != refErr.Error() {
			t.Errorf("%s: Encode error %q, reference %q", c.name, err, refErr)
		}
		if c.rec.Root != nil && errors.Is(c.want, ErrBadNode) {
			if vErr := c.rec.Root.Validate(); vErr == nil || vErr.Error() != refErr.Error() {
				t.Errorf("%s: Validate error %v, reference %q", c.name, vErr, refErr)
			}
		}
	}

	// A type table past 16 bits: 65536 distinct types take a quadratic
	// scan to collect, so hand both header writers the table directly.
	order := make([]typeKey, math.MaxUint16+1)
	rec := &Record{Root: NewTextLiteral("x")}
	_, refErr := refEncodeInto(rec, 64, order)
	e := emitter{order: order}
	_, err := e.emit(nil, rec, 64)
	if !errors.Is(refErr, ErrTooLarge) || !errors.Is(err, ErrTooLarge) || err.Error() != refErr.Error() {
		t.Errorf("oversized type table: emit error %v, reference %v", err, refErr)
	}

	// EncodeWith's own contract: a type set or content size that does not
	// match the tree is an error, never a miswritten record.
	good := &Record{Root: figure2()}
	ts := typeSetOf(good.Root)
	if _, err := EncodeWith(nil, good, ts, good.Root.ContentSize()-1); err == nil {
		t.Error("EncodeWith accepted a short content size")
	}
	if _, err := EncodeWith(nil, good, ts, good.Root.ContentSize()+1); err == nil {
		t.Error("EncodeWith accepted a long content size")
	}
	ts.TruncateTo(ts.Len() - 1)
	if _, err := EncodeWith(nil, good, ts, good.Root.ContentSize()); err == nil {
		t.Error("EncodeWith accepted a type set missing a type")
	}
	// Emit's: the tree must be the one measured.
	var l Layout
	if err := Measure(good, &l); err != nil {
		t.Fatal(err)
	}
	good.Root.AppendChild(NewTextLiteral("late"))
	if _, err := l.Emit(nil, good); err == nil {
		t.Error("Emit accepted a tree that grew after Measure")
	}
}
