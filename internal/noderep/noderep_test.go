package noderep

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"natix/internal/dict"
	"natix/internal/pagedev"
	"natix/internal/records"
)

// Labels used in tests (arbitrary user ids).
const (
	lSpeech  = dict.LabelID(10)
	lSpeaker = dict.LabelID(11)
	lLine    = dict.LabelID(12)
)

// figure2 builds the paper's example: a SPEECH with SPEAKER and two LINEs.
func figure2() *Node {
	speech := NewAggregate(lSpeech)
	speaker := NewAggregate(lSpeaker)
	speaker.AppendChild(NewTextLiteral("OTHELLO"))
	line1 := NewAggregate(lLine)
	line1.AppendChild(NewTextLiteral("Let me see your eyes;"))
	line2 := NewAggregate(lLine)
	line2.AppendChild(NewTextLiteral("Look in my face."))
	speech.AppendChild(speaker)
	speech.AppendChild(line1)
	speech.AppendChild(line2)
	return speech
}

func TestFigure15Sizes(t *testing.T) {
	// Appendix A, figure 15: standalone headers are 10 bytes and embedded
	// ones 6. Format version 2 dropped the parent offset (4-byte embedded
	// headers), version 3 stored a text-only element — every SPEAKER and
	// LINE of the paper's own example — under one of them, format 4 spends
	// a type byte and a size byte on such an element, and format 5 a byte
	// less on each type-table entry and on the standalone header. Check the
	// arithmetic on that example.
	speech := figure2()
	// Each LINE aggregate: one 2-byte header and its text's bytes; the same
	// pair cost 4 + len(text) in version 3, 4 + (4 + len(text)) in version
	// 2 and 6 + (6 + len(text)) in version 1.
	line1 := speech.Children[1]
	if got, want := line1.TotalSize(), 2+len("Let me see your eyes;"); got != want {
		t.Fatalf("LINE size = %d, want %d", got, want)
	}
	if got, want := refContentSize(line1, 4, false), 4+len("Let me see your eyes;"); got != want {
		t.Fatalf("version 2 LINE content = %d, want %d", got, want)
	}
	if got, want := refContentSize(line1, 6, false), 6+len("Let me see your eyes;"); got != want {
		t.Fatalf("version 1 LINE content = %d, want Appendix A's %d", got, want)
	}
	rec := &Record{Root: speech}
	// Record: header(4) + type table (SPEECH agg, SPEAKER agg, LINE agg —
	// 3 entries of 3 bytes; the #text literal type version 2 lists fourth
	// has no header left to cite it) + standalone(9) + content.
	if order := collectTypes(speech); len(order) != 4 {
		t.Fatalf("the tree has %d node types, want 4", len(order))
	}
	wantSize := 4 + 3*3 + 9 + speech.ContentSize()
	if got := EncodedSize(rec); got != wantSize {
		t.Fatalf("EncodedSize = %d, want %d", got, wantSize)
	}
	buf, err := Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != wantSize {
		t.Fatalf("len(Encode) = %d, EncodedSize = %d", len(buf), wantSize)
	}
	// Three text-only elements: two bytes each less than version 3, which
	// also spends a byte more on each of three type entries and on the
	// standalone header; the text's header and the type entry less again
	// in version 2.
	if got := refEncodedSize(rec, formatVersion3); got != wantSize+3*2+3+1 {
		t.Fatalf("version 3 size = %d, want %d", got, wantSize+3*2+3+1)
	}
	if got := refEncodedSize(rec, formatVersion2); got != wantSize+3*(2+4)+3+1+legacyEntrySize {
		t.Fatalf("version 2 size = %d, want %d", got, wantSize+3*(2+4)+3+1+legacyEntrySize)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rec := &Record{
		ParentRID: records.RID{Page: 77, Slot: 3},
		Root:      figure2(),
	}
	buf, err := Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ParentRID != rec.ParentRID {
		t.Fatalf("ParentRID = %v, want %v", got.ParentRID, rec.ParentRID)
	}
	if !Equal(got.Root, rec.Root) {
		t.Fatal("tree changed in round trip")
	}
	// Parent links are rebuilt on decode.
	for _, c := range got.Root.Children {
		if c.Parent != got.Root {
			t.Fatal("decoded child missing parent link")
		}
	}
}

func TestProxyAndScaffoldRoundTrip(t *testing.T) {
	// A partition record: scaffolding aggregate root holding a facade
	// subtree and a proxy (like r2 in figure 3).
	root := NewScaffoldAggregate()
	f := NewAggregate(lLine)
	f.AppendChild(NewTextLiteral("text"))
	root.AppendChild(f)
	root.AppendChild(NewProxy(records.RID{Page: 123456, Slot: 9}))
	rec := &Record{ParentRID: records.RID{Page: 1, Slot: 0}, Root: root}
	buf, err := Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Root.Scaffold {
		t.Fatal("scaffold flag lost")
	}
	p := got.Root.Children[1]
	if p.Kind != KindProxy || p.Target != (records.RID{Page: 123456, Slot: 9}) {
		t.Fatalf("proxy = %+v", p)
	}
}

func TestEmptyAggregateRecord(t *testing.T) {
	rec := &Record{Root: NewAggregate(lSpeech)}
	buf, err := Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Root.Children) != 0 || got.Root.Label != lSpeech {
		t.Fatalf("decoded %+v", got.Root)
	}
}

func TestValidateRejectsBadShapes(t *testing.T) {
	lit := NewTextLiteral("x")
	lit.Children = []*Node{NewTextLiteral("y")}
	if err := lit.Validate(); err == nil {
		t.Error("literal with children validated")
	}
	px := NewProxy(records.RID{Page: 1})
	px.Payload = []byte{1}
	if err := px.Validate(); err == nil {
		t.Error("proxy with payload validated")
	}
	nilp := NewProxy(records.NilRID)
	if err := nilp.Validate(); err == nil {
		t.Error("proxy with nil target validated")
	}
	// Embedded scaffolding aggregate violates the invariant.
	root := NewAggregate(lSpeech)
	root.AppendChild(NewScaffoldAggregate())
	if err := root.Validate(); err == nil {
		t.Error("embedded scaffold validated")
	}
	// As a root it is fine.
	if err := NewScaffoldAggregate().Validate(); err != nil {
		t.Errorf("root scaffold rejected: %v", err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	rec := &Record{Root: figure2()}
	buf, err := Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations must never panic. Most fail outright; a cut that lands
	// exactly on a child boundary is indistinguishable (the record has no
	// redundant length field — standalone objects take their size from
	// the slot, App. A), but even then the result must validate.
	for n := 0; n < len(buf); n++ {
		got, err := Decode(buf[:n])
		if err == nil {
			if vErr := got.Root.Validate(); vErr != nil {
				t.Fatalf("truncation to %d decoded to invalid tree: %v", n, vErr)
			}
		}
	}
	// Bad version.
	bad := append([]byte(nil), buf...)
	bad[0] = 99
	if _, err := Decode(bad); err == nil {
		t.Fatal("bad version accepted")
	}
	bad = append([]byte(nil), buf...)
	bad[len(bad)-1] ^= 0xFF // inside last literal payload: still decodes
	if _, err := Decode(bad); err != nil {
		t.Fatalf("payload change should still decode: %v", err)
	}
	// A version 1 image has its parent offsets checked by the upgrade,
	// and the runtime decoder refuses it outright.
	v1, err := refEncodeV1(rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Upgrade(v1); err != nil {
		t.Fatalf("version 1 image: %v", err)
	}
	if _, err := Decode(v1); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("Decode of a version 1 image: %v", err)
	}
	lastHdr := len(v1) - len("Look in my face.") - 6
	v1[lastHdr+4] ^= 0x01
	if _, _, err := Upgrade(v1); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("version 1 image with a wrong parent offset: %v", err)
	}
}

func TestChildManipulation(t *testing.T) {
	n := NewAggregate(lSpeech)
	a := NewTextLiteral("a")
	b := NewTextLiteral("b")
	c := NewTextLiteral("c")
	n.AppendChild(a)
	n.AppendChild(c)
	n.InsertChild(1, b)
	if n.ChildIndex(b) != 1 || n.ChildIndex(c) != 2 {
		t.Fatalf("indexes wrong: %d %d", n.ChildIndex(b), n.ChildIndex(c))
	}
	got := n.RemoveChild(0)
	if got != a || len(n.Children) != 2 || n.Children[0] != b {
		t.Fatal("RemoveChild wrong")
	}
	if a.Parent != nil {
		t.Fatal("removed child keeps parent")
	}
	if n.ChildIndex(a) != -1 {
		t.Fatal("removed child still found")
	}
}

func TestCloneIsDeep(t *testing.T) {
	orig := figure2()
	cl := orig.Clone()
	if !Equal(orig, cl) {
		t.Fatal("clone differs")
	}
	cl.Children[0].Children[0].Payload[0] = 'X'
	if Equal(orig, cl) {
		t.Fatal("clone shares payload storage")
	}
}

func TestTypedLiterals(t *testing.T) {
	cases := []int64{0, 1, -1, 127, -128, 128, 32767, -32768, 1 << 20, math.MaxInt64, math.MinInt64}
	wantTypes := []LitType{LitInt8, LitInt8, LitInt8, LitInt8, LitInt8, LitInt16, LitInt16, LitInt16, LitInt32, LitInt64, LitInt64}
	for i, v := range cases {
		n := NewIntLiteral(lLine, v)
		if n.LitType != wantTypes[i] {
			t.Errorf("NewIntLiteral(%d) type = %d, want %d", v, n.LitType, wantTypes[i])
		}
		got, err := n.IntValue()
		if err != nil || got != v {
			t.Errorf("IntValue(%d) = %d, %v", v, got, err)
		}
	}
	f := NewFloatLiteral(lLine, 3.25)
	if got, err := f.FloatValue(); err != nil || got != 3.25 {
		t.Errorf("FloatValue = %v, %v", got, err)
	}
	u := NewURILiteral(lLine, "http://example.com/x")
	if got, err := u.StringValue(); err != nil || got != "http://example.com/x" {
		t.Errorf("URI StringValue = %q, %v", got, err)
	}
	blob := records.RID{Page: 5, Slot: 2}
	l := NewLongStringLiteral(lLine, blob)
	if got, err := l.BlobID(); err != nil || got != blob {
		t.Errorf("BlobID = %v, %v", got, err)
	}
	// Wrong-type accessors fail.
	if _, err := f.IntValue(); err == nil {
		t.Error("IntValue on float succeeded")
	}
	if _, err := u.FloatValue(); err == nil {
		t.Error("FloatValue on URI succeeded")
	}
	if _, err := NewIntLiteral(lLine, 1).StringValue(); err == nil {
		t.Error("StringValue on int succeeded")
	}
}

func TestIntLiteralRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(v int64) bool {
		got, err := NewIntLiteral(lLine, v).IntValue()
		return err == nil && got == v
	}, nil); err != nil {
		t.Error(err)
	}
}

// randomPhysTree builds a random, valid physical subtree.
func randomPhysTree(rng *rand.Rand, depth int, root bool) *Node {
	if depth <= 0 || rng.Intn(4) == 0 {
		switch rng.Intn(3) {
		case 0:
			b := make([]byte, rng.Intn(40))
			rng.Read(b)
			return NewLiteral(dict.Text, LitString, b)
		case 1:
			return NewIntLiteral(dict.LabelID(3+rng.Intn(5)), rng.Int63()-rng.Int63())
		default:
			return NewProxy(records.RID{Page: pagedev.PageNo(1 + rng.Uint64()%1000), Slot: uint16(rng.Intn(100))})
		}
	}
	n := NewAggregate(dict.LabelID(3 + rng.Intn(8)))
	for i := rng.Intn(5); i > 0; i-- {
		n.AppendChild(randomPhysTree(rng, depth-1, false))
	}
	return n
}

// TestRecordRoundTripProperty: random physical trees survive
// encode→decode bit-exactly, and EncodedSize always equals len(Encode).
func TestRecordRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		root := randomPhysTree(rng, 5, true)
		if root.Kind != KindAggregate {
			agg := NewAggregate(dict.LabelID(3))
			agg.AppendChild(root)
			root = agg
		}
		rec := &Record{
			ParentRID: records.RID{Page: pagedev.PageNo(rng.Uint64() % (1 << 40)), Slot: uint16(rng.Intn(1 << 16))},
			Root:      root,
		}
		buf, err := Encode(rec)
		if err != nil {
			t.Fatalf("tree %d: encode: %v", i, err)
		}
		if len(buf) != EncodedSize(rec) {
			t.Fatalf("tree %d: EncodedSize %d != len %d", i, EncodedSize(rec), len(buf))
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("tree %d: decode: %v", i, err)
		}
		if got.ParentRID != rec.ParentRID || !Equal(got.Root, rec.Root) {
			t.Fatalf("tree %d: round trip changed record", i)
		}
		// Re-encode must be byte-identical (canonical form).
		buf2, err := Encode(got)
		if err != nil {
			t.Fatalf("tree %d: re-encode: %v", i, err)
		}
		if string(buf) != string(buf2) {
			t.Fatalf("tree %d: encoding not canonical", i)
		}
	}
}

func TestParentRIDOffset(t *testing.T) {
	rec := &Record{ParentRID: records.RID{Page: 42, Slot: 7}, Root: figure2()}
	buf, err := Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	off := ParentRIDOffset(len(tableTypes(rec.Root)))
	got := records.DecodeRID(buf[off : off+records.RIDSize])
	if got != rec.ParentRID {
		t.Fatalf("RID at ParentRIDOffset = %v, want %v", got, rec.ParentRID)
	}
}

func TestCountAndWalk(t *testing.T) {
	tree := figure2()
	if got := tree.CountNodes(); got != 7 {
		t.Fatalf("CountNodes = %d, want 7", got)
	}
	var seen int
	tree.Walk(func(n *Node) bool {
		seen++
		return true
	})
	if seen != 7 {
		t.Fatalf("Walk visited %d", seen)
	}
	// Early stop.
	seen = 0
	tree.Walk(func(n *Node) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Fatalf("early-stopped walk visited %d", seen)
	}
}
