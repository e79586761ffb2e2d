package noderep

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"natix/internal/dict"
	"natix/internal/records"
)

// FuzzDecode feeds Decode arbitrary bytes. The decoder reads records off
// pages whose checksum only proves they were not damaged in flight, so on
// any input it must return a record or ErrCorruptRecord — no panic, no
// allocation out of proportion to the input — and whatever it accepts
// the encoder accepts too and re-encodes to as many bytes, which decode
// to the same tree. The bytes need not be the same: the format is
// canonical but for the order of the type table, which the encoder
// writes in the order of first use and a splice leaves as it was stored
// (the splice-order seed). The checked-in corpus under testdata/fuzz
// holds records of a bulk-loaded and a node-by-node-built corpus play as
// the older builds stored them (versions 1 to 4, the -v4 files format 4,
// which Decode refuses; FuzzUpgrade reads them), and a format 4 image
// whose table is out of first-use order; addRecordSeeds adds a format 5
// one.
func FuzzDecode(f *testing.F) {
	addRecordSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("Decode error outside ErrCorruptRecord: %v", err)
			}
			return
		}
		// Every node but the root spends an embedded header of at least a
		// byte and its own content or text's, or is the text of a fused
		// element whose header is two bytes, and payload bytes are input
		// bytes: the tree cannot outgrow its image.
		nodes, payload := 0, 0
		rec.Root.Walk(func(n *Node) bool {
			nodes++
			payload += len(n.Payload)
			return true
		})
		if nodes > 2+len(data) || payload > len(data) {
			t.Fatalf("%d nodes and %d payload bytes decoded from %d input bytes", nodes, payload, len(data))
		}
		// What Decode accepts, Measure accepts, and the image is exactly
		// what its tree encodes to: no shape only the decoder knows (an
		// embedded scaffolding aggregate was one, until the splice path
		// stopped re-measuring stored records; an unfused text-only element
		// would be another), no size in a longer form than it needs and no
		// slack in the type table.
		var l Layout
		if err := Measure(rec, &l); err != nil {
			t.Fatalf("Measure rejects a record Decode accepted: %v", err)
		}
		enc, err := l.Emit(nil, rec)
		if err != nil {
			t.Fatalf("re-encode of an accepted record: %v", err)
		}
		if l.Size() != len(data) || len(enc) != len(data) {
			t.Fatalf("accepted %d bytes, re-encode measures %d and writes %d", len(data), l.Size(), len(enc))
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(Encode(rec)): %v", err)
		}
		if !Equal(again.Root, rec.Root) || again.ParentRID != rec.ParentRID {
			t.Fatal("Decode(Encode(rec)) is not rec")
		}
	})
}

// FuzzUpgrade feeds Upgrade arbitrary bytes, seeded with FuzzDecode's
// records in all five format versions and its checked-in corpus (corpus
// plays as the older builds stored them). An image the legacy decoder
// accepts upgrades to a tree, counts at zero, that encodes in format 5
// and decodes back to itself; a format 5 image is decoded as it is;
// anything else is ErrCorruptRecord — never a panic — and the input is
// never written.
func FuzzUpgrade(f *testing.F) {
	for _, rec := range seedRecords() {
		for _, encode := range []func(*Record) ([]byte, error){refEncodeV1, refEncodeV2, refEncodeV3, refEncodeV4, Encode} {
			buf, err := encode(rec)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(buf)
		}
	}
	for _, data := range corpusOf(f, "FuzzDecode") {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.Clone(data)
		rec, out, err := Upgrade(data)
		if !bytes.Equal(data, in) {
			t.Fatal("Upgrade wrote to its input")
		}
		if err != nil {
			if !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("Upgrade error outside ErrCorruptRecord: %v", err)
			}
			if _, err := Decode(data); err == nil {
				t.Fatal("Upgrade refuses an image Decode accepts")
			}
			return
		}
		if out != (data[0] != FormatVersion) {
			t.Fatalf("an image of version %d upgraded as old %v", data[0], out)
		}
		img := data
		if out {
			if img, err = Encode(rec); err != nil {
				t.Fatalf("the upgraded tree does not encode: %v", err)
			}
		}
		dec, err := Decode(img)
		if err != nil {
			t.Fatalf("the upgraded image does not decode: %v", err)
		}
		if !Equal(dec.Root, rec.Root) || dec.ParentRID != rec.ParentRID {
			t.Fatal("the upgraded image decodes to another tree")
		}
	})
}

// seedRecords returns the records the fuzz targets are seeded with: the
// paper's Figure 2 record, a scaffolding root over a proxy, a text past
// the short size form, a type table past the narrow form (128 types),
// texts that hold markup characters, fused and not, and random records —
// thirty in all.
func seedRecords() []*Record {
	wide := NewAggregate(dict.LabelID(3))
	for i := 0; i <= narrowTypes; i++ {
		wide.AppendChild(NewAggregate(dict.LabelID(4 + i)).AppendChild(NewTextLiteral("w")))
	}
	seeds := []*Record{
		{Root: figure2(), ParentRID: records.RID{Page: 77, Slot: 3}},
		{Root: NewScaffoldAggregate().AppendChild(NewProxy(records.RID{Page: 5, Slot: 1})).AppendChild(NewTextLiteral("tail"))},
		{Root: NewAggregate(lSpeech).AppendChild(NewAggregate(lLine).AppendChild(NewTextLiteral(string(bytes.Repeat([]byte("long "), 40)))))},
		{Root: wide},
		{Root: NewAggregate(lSpeech).
			AppendChild(NewAggregate(lLine).AppendChild(NewTextLiteral("Rosencrantz & Guildenstern"))).
			AppendChild(NewTextLiteral("if a < b, then b > a")).
			AppendChild(NewAggregate(lLine).AppendChild(NewTextLiteral("no markup here")))},
	}
	rng := rand.New(rand.NewSource(7))
	for len(seeds) < 30 {
		seeds = append(seeds, randomRecord(rng))
	}
	return seeds
}

// addRecordSeeds adds the format 5 images of seedRecords, and one whose
// type table a splice left out of first-use order: an element of the
// table's last type spliced in front of the first child.
func addRecordSeeds(f *testing.F) {
	for _, rec := range seedRecords() {
		buf, err := Encode(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	img, err := Encode(&Record{Root: NewAggregate(lSpeech).AppendChild(NewAggregate(lSpeaker)).AppendChild(NewAggregate(lLine))})
	if err != nil {
		f.Fatal(err)
	}
	var sp Splice
	if img, ok := sp.Insert(img, []int{0}, NewAggregate(lLine), 1024); ok {
		f.Add(img)
	} else {
		f.Fatal("the splice-order seed does not splice")
	}
}
