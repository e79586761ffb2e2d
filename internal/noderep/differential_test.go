package noderep

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
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
		case k < 5 && depth < 99:
			p := NewProxy(randomRID(rng))
			p.Count = uint32(rng.Intn(300))
			return p
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
	case 1: // a lone literal standing alone
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

// tableTypes returns the type table of root's version 3 or 4 image, in
// the encoder's order: the types of the nodes written with a header,
// which a fused text is not.
func tableTypes(root *Node) []typeKey {
	var order []typeKey
	var walk func(n *Node)
	walk = func(n *Node) {
		if k := nodeTypeKey(n); typeIndex(order, k) < 0 {
			order = append(order, k)
		}
		if n.FusedText() != nil {
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	return order
}

// fusedTexts counts the texts of root's subtree that version 3 stores
// under their element's header.
func fusedTexts(root *Node) int {
	fused := 0
	root.Walk(func(n *Node) bool {
		if n.FusedText() != nil {
			fused++
		}
		return true
	})
	return fused
}

// tableTypes5 is tableTypes without the proxies' type: the type table of
// root's format 5 image.
func tableTypes5(root *Node) []typeKey {
	types := tableTypes(root)
	if i := typeIndex(types, proxyKey); i >= 0 {
		types = append(types[:i], types[i+1:]...)
	}
	return types
}

// typeSetOf accounts a subtree's types the way the bulk builder does: one
// AddNode per node that is written with a header and is no proxy.
func typeSetOf(root *Node) *TypeSet {
	ts := NewTypeSet()
	ts.order = append(ts.order, tableTypes5(root)...)
	return ts
}

// proxies counts the proxies of root's subtree.
func proxies(root *Node) int {
	n := 0
	root.Walk(func(x *Node) bool {
		if x.Kind == KindProxy {
			n++
		}
		return true
	})
	return n
}

// setCounts copies the proxies' counts of the tree from onto the same
// tree to, which an upgrade from a format older than 5 left at zero.
func setCounts(to, from *Node) {
	if to.Kind == KindProxy {
		to.Count = from.Count
	}
	for i := range to.Children {
		setCounts(to.Children[i], from.Children[i])
	}
}

// refSize5 is the size of rec's format 5 image, header by header as the
// package comment's grammar spells it out.
func refSize5(rec *Record) int {
	types := len(tableTypes5(rec.Root))
	typeBytes := 1
	if types > narrowTypes {
		typeBytes = 2
	}
	var content func(n *Node) int
	content = func(n *Node) int {
		switch {
		case n.Kind == KindProxy:
			return records.RIDSize + CountSize
		case n.Kind == KindLiteral:
			return len(n.Payload)
		case n.FusedText() != nil:
			return len(n.FusedText().Payload)
		}
		total := 0
		for _, c := range n.Children {
			cs := content(c)
			switch {
			case c.Kind == KindProxy:
				total += typeBytes
			case c.Kind == KindAggregate && c.FusedText() == nil, cs >= 128:
				total += typeBytes + 2
			default:
				total += typeBytes + 1
			}
			total += cs
		}
		return total
	}
	return recHeaderSize + ttEntrySize*types + StandaloneHeaderSize + content(rec.Root)
}

// checkAllVersions holds one well-formed record's version 1 to 4 images,
// from the reference encoders, against its format 5 image from every
// production entry point: each older image up to 3 is a step smaller than
// the one before — version 2 by the parent offsets it does not store,
// version 3 by the headers of the texts it fuses and the #text type entry
// once no header cites it — version 4 is no larger than version 3, and
// format 5 is version 4 with a count on every proxy, no proxy entry in
// the table, a byte less per table entry and in the standalone header.
// Each older image upgrades to the record's tree, counts left at zero,
// which with the counts filled in encodes to exactly the format 5 image;
// that has the size the grammar gives, decodes to the record, and holds
// the standalone parent RID where ParentRIDOffset says. The runtime
// decoder refuses the older images.
func checkAllVersions(t *testing.T, rec *Record) {
	t.Helper()
	v1, err := refEncodeV1(rec)
	if err != nil {
		t.Fatalf("version 1 reference rejects a well-formed record: %v", err)
	}
	if len(v1) != refEncodedSize(rec, formatVersion1) || v1[0] != formatVersion1 {
		t.Fatalf("reference image: %d bytes of version %d, sized %d", len(v1), v1[0], refEncodedSize(rec, formatVersion1))
	}
	v2, err := refEncodeV2(rec)
	if err != nil || len(v2) != refEncodedSize(rec, formatVersion2) || v2[0] != formatVersion2 {
		t.Fatalf("version 2 reference image: %d bytes, sized %d, err %v", len(v2), refEncodedSize(rec, formatVersion2), err)
	}
	if saved := 2 * (rec.Root.CountNodes() - 1); len(v2) != len(v1)-saved {
		t.Fatalf("version 2 image has %d bytes, version 1 %d: want %d saved", len(v2), len(v1), saved)
	}
	v3, err := refEncodeV3(rec)
	if err != nil {
		t.Fatalf("version 3 reference: %v", err)
	}
	allTypes, types := len(collectTypes(rec.Root)), len(tableTypes(rec.Root))
	if allTypes-types > 1 || (allTypes != types && fusedTexts(rec.Root) == 0) {
		t.Fatalf("%d node types, %d in the version 3 table, %d fused texts", allTypes, types, fusedTexts(rec.Root))
	}
	if saved := 4*fusedTexts(rec.Root) + legacyEntrySize*(allTypes-types); len(v3) != len(v2)-saved {
		t.Fatalf("version 3 image has %d bytes, version 2 %d: want %d saved", len(v3), len(v2), saved)
	}
	v4, err := refEncodeV4(rec)
	if err != nil || len(v4) > len(v3) {
		t.Fatalf("version 4 reference: %d bytes, version 3 %d, err %v", len(v4), len(v3), err)
	}
	want, err := Encode(rec)
	if err != nil || want[0] != FormatVersion {
		t.Fatalf("Encode: %v", err)
	}
	if len(want) != refSize5(rec) || EncodedSize(rec) != len(want) {
		t.Fatalf("format 5 image has %d bytes (EncodedSize %d), the grammar gives %d", len(want), EncodedSize(rec), refSize5(rec))
	}
	types5, proxyEntry := len(tableTypes5(rec.Root)), types-len(tableTypes5(rec.Root))
	if grown := CountSize*proxies(rec.Root) - types5 - legacyEntrySize*proxyEntry - 1; types <= narrowTypes && len(want) != len(v4)+grown {
		t.Fatalf("format 5 image has %d bytes, version 4 %d: want %+d", len(want), len(v4), grown)
	}

	// The parent RID lies behind the record header, the type table and the
	// standalone type index: ParentRIDOffset in format 5, 4-byte entries
	// and a 2-byte index in every older version.
	for _, img := range [][]byte{v1, v2, v3, v4, want} {
		off := recHeaderSize + legacyEntrySize*len(refTypes(rec, img[0])) + 2
		switch img[0] {
		case legacyVersion4:
			off = recHeaderSize + legacyEntrySize*types + 2
		case FormatVersion:
			off = ParentRIDOffset(types5)
		}
		if records.DecodeRID(img[off:off+records.RIDSize]) != rec.ParentRID {
			t.Fatalf("version %d image: parent RID not at offset %d", img[0], off)
		}
		dec, old, err := Upgrade(img)
		if err != nil || old != (img[0] != FormatVersion) || dec.ParentRID != rec.ParentRID {
			t.Fatalf("version %d image does not upgrade (old %v, err %v)", img[0], old, err)
		}
		if old {
			setCounts(dec.Root, rec.Root)
		}
		if up, err := Encode(dec); err != nil || !Equal(dec.Root, rec.Root) || !bytes.Equal(up, want) {
			t.Fatalf("version %d image does not upgrade to the record's format 5 image (err %v)", img[0], err)
		}
		if img[0] != FormatVersion {
			if _, err := Decode(img); !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("Decode of a version %d image: %v, want ErrCorruptRecord", img[0], err)
			}
			if _, err := OpenImage(string(img)); !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("OpenImage of a version %d image: %v, want ErrCorruptRecord", img[0], err)
			}
		}
	}
	dec, err := Decode(want)
	if err != nil || !Equal(dec.Root, rec.Root) || dec.ParentRID != rec.ParentRID {
		t.Fatalf("the format 4 image does not decode to the record (err %v)", err)
	}
	if rid, off := ImageParentRID(want); off != ParentRIDOffset(types5) || rid != rec.ParentRID {
		t.Fatalf("ImageParentRID = %s at %d, want %s at %d", rid, off, rec.ParentRID, ParentRIDOffset(types5))
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
	got, err := l.Emit(dirty, rec)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Measure+Emit into a used buffer differs from Encode (err %v)", err)
	}

	// The bulk loader's path: type set and content size accounted by the
	// caller, indexes resolved by key.
	got, err = EncodeWith(nil, rec, typeSetOf(rec.Root), rec.Root.ContentSize())
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("EncodeWith differs from Encode (err %v)", err)
	}
}

func TestEncodeMatchesReference(t *testing.T) {
	checkAllVersions(t, &Record{Root: figure2(), ParentRID: records.RID{Page: 9, Slot: 1}})
	checkAllVersions(t, &Record{Root: NewAggregate(dict.LabelID(3))}) // empty aggregate
	checkAllVersions(t, &Record{Root: NewTextLiteral("")})            // empty literal
	checkAllVersions(t, &Record{Root: NewScaffoldAggregate()})        // scaffolding root
	checkAllVersions(t, &Record{Root: benchTree(200), ParentRID: records.RID{Page: 2}})

	rng := rand.New(rand.NewSource(2000))
	for i := 0; i < 1500; i++ {
		checkAllVersions(t, randomRecord(rng))
	}

	// Records sized to the byte, as a full page's record is: the last
	// literal is padded until the image is exactly the target.
	for _, target := range []int{2048 - 40, 8192 - 44, 8192 - 43, 32768 - 44} {
		rec := &Record{Root: benchTree(20), ParentRID: records.RID{Page: 3, Slot: 3}}
		pad := NewTextLiteral("")
		rec.Root.AppendChild(pad)
		pad.Payload = make([]byte, target-EncodedSize(rec))
		pad.Payload = pad.Payload[:len(pad.Payload)-(EncodedSize(rec)-target)] // its size took a second byte
		if EncodedSize(rec) != target {
			t.Fatalf("padding produced %d bytes, want %d", EncodedSize(rec), target)
		}
		checkAllVersions(t, rec)
	}

	// The size limit from the inside: a content size has 15 bits, a record
	// being at most a 32 KB page — a fused text of exactly 32767 bytes, the
	// same text unfused beside a sibling, and a nested content of exactly
	// 32767. The older versions spend more on headers, which puts their
	// images past what still decodes, so these are held to the round trip
	// alone.
	big := NewAggregate(dict.LabelID(3))
	big.AppendChild(NewAggregate(dict.LabelID(4)).AppendChild(NewTextLiteral(string(make([]byte, maxContentSize)))))
	unfused := NewAggregate(dict.LabelID(3))
	unfused.AppendChild(NewTextLiteral("")).AppendChild(NewTextLiteral(string(make([]byte, maxContentSize))))
	nested := NewAggregate(dict.LabelID(4)).AppendChild(NewTextLiteral("")).AppendChild(NewTextLiteral(""))
	nested.Children[1].Payload = make([]byte, maxContentSize-2-3) // two text headers, one long
	for _, root := range []*Node{big, unfused, NewAggregate(dict.LabelID(3)).AppendChild(nested)} {
		rec := &Record{Root: root}
		img, err := Encode(rec)
		if err != nil || len(img) != EncodedSize(rec) || len(img) != refSize5(rec) {
			t.Fatalf("record at the size limit: %d bytes, EncodedSize %d, err %v", len(img), EncodedSize(rec), err)
		}
		if dec, err := Decode(img); err != nil || !Equal(dec.Root, root) {
			t.Fatalf("record at the size limit does not round-trip (err %v)", err)
		}
	}

	// The records of a corpus play as older commits stored them — the fuzz
	// seed corpus, bulk-loaded and built node by node: each has exactly the
	// size of the reference encoder's image of its tree for its version,
	// and the -v3
	// and -v4 seeds, written by builds that packed records alike, upgrade
	// to one tree.
	for _, name := range []string{"play-bulk-", "play-incremental-"} {
		for i := 0; i < 4; i++ {
			var v3 *Record
			for version, suffix := range []string{"", "", "-v2", "-v3", "-v4"} {
				if version == 0 {
					continue
				}
				seed := fmt.Sprintf("%s%d%s", name, i, suffix)
				img := readFuzzSeed(t, seed)
				rec, old, err := Upgrade(img)
				if err != nil || !old || int(img[0]) != version {
					t.Fatalf("%s: version %d, %d bytes, err %v", seed, img[0], len(img), err)
				}
				ref, err := refEncode(rec, byte(version))
				if version == legacyVersion4 {
					ref, err = refEncodeV4(rec)
				}
				if err != nil || len(ref) != len(img) {
					t.Fatalf("%s: %d bytes, its tree encodes to %d in version %d (err %v)", seed, len(img), len(ref), version, err)
				}
				if version == formatVersion3 {
					v3 = rec
				}
				if version == legacyVersion4 && (!Equal(v3.Root, rec.Root) || v3.ParentRID != rec.ParentRID) {
					t.Fatalf("%s upgrades to another tree than %s%d-v3", seed, name, i)
				}
				checkAllVersions(t, rec)
			}
		}
	}
}

// readFuzzSeed returns the []byte argument of a one-argument seed file
// under testdata/fuzz/FuzzDecode.
func readFuzzSeed(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecode", name))
	if err != nil {
		t.Fatal(err)
	}
	_, lit, ok := strings.Cut(string(data), "[]byte(")
	if !ok {
		t.Fatalf("%s: no []byte argument", name)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(s)
}

// TestEncodeErrorsMatchReference feeds both encoders every malformed or
// oversized shape they reject; they must agree on the sentinel and, for a
// malformed tree, the message (the sizes an oversized one reports depend
// on the header size). What only version 1 rejects is stated last.
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
		{"child content past 16 bits", &Record{Root: agg(NewTextLiteral(""), NewTextLiteral(string(make([]byte, math.MaxUint16+1))))}, ErrTooLarge},
		{"nested content past 16 bits", &Record{Root: agg(agg(NewTextLiteral(string(make([]byte, math.MaxUint16-4+1)))))}, ErrTooLarge},
	}
	for _, c := range cases {
		_, refErr := refEncodeV1(c.rec)
		_, err := Encode(c.rec)
		if !errors.Is(refErr, c.want) {
			t.Fatalf("%s: reference error %v, want %v", c.name, refErr, c.want)
		}
		if !errors.Is(err, c.want) || (c.want == ErrBadNode && err.Error() != refErr.Error()) {
			t.Errorf("%s: Encode error %q, reference %q", c.name, err, refErr)
		}
		if c.rec.Root != nil && errors.Is(c.want, ErrBadNode) {
			if vErr := c.rec.Root.Validate(); vErr == nil || vErr.Error() != refErr.Error() {
				t.Errorf("%s: Validate error %v, reference %q", c.name, vErr, refErr)
			}
		}
	}

	// Format 4 refuses a content size past 15 bits, which is all its long
	// size form holds; the older versions wrote one, and read it back as a
	// mark (version 3) or a mark the version does not have, so what they
	// wrote does not upgrade. No stored record can hold one: a record is
	// at most a page, and a page at most 32 KB.
	for name, rec := range map[string]*Record{
		"child content at 15 bits":  {Root: agg(NewTextLiteral(""), NewTextLiteral(string(make([]byte, maxContentSize+1))))},
		"fused content at 15 bits":  {Root: agg(agg(NewTextLiteral(string(make([]byte, maxContentSize+1)))))},
		"nested content at 15 bits": {Root: agg(agg(NewTextLiteral(""), NewTextLiteral(string(make([]byte, maxContentSize-5+1)))))},
	} {
		if _, err := Encode(rec); !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s: Encode error %v, want ErrTooLarge", name, err)
		}
		for _, ref := range []func(*Record) ([]byte, error){refEncodeV1, refEncodeV2} {
			img, err := ref(rec)
			if err != nil {
				t.Fatalf("%s: reference encoder: %v", name, err)
			}
			if _, _, err := Upgrade(img); !errors.Is(err, ErrCorruptRecord) {
				t.Errorf("%s: Upgrade of the version %d image: %v, want ErrCorruptRecord", name, img[0], err)
			}
		}
	}
	// Version 1 alone refuses an aggregate with children whose header lies
	// past offset 65535, since they could not cite it.
	if _, err := refEncodeV1(&Record{Root: tooFar}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("parent offset past 16 bits: version 1 reference error %v, want ErrTooLarge", err)
	}
	if _, err := refEncodeV2(&Record{Root: tooFar}); err != nil {
		t.Errorf("parent offset past 16 bits: version 2 reference error %v", err)
	}

	// A type table past 16 bits: 65536 distinct types take a quadratic
	// scan to collect, so hand both header writers the table directly.
	order := make([]typeKey, math.MaxUint16+1)
	rec := &Record{Root: NewTextLiteral("x")}
	_, refErr := refEncodeInto(rec, formatVersion1, 64, order)
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
