package noderep

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"natix/internal/records"
)

// FuzzDecode feeds Decode arbitrary bytes. The decoder reads records off
// pages whose checksum only proves they were not damaged in flight, so on
// any input it must return a record or ErrCorruptRecord — no panic, no
// allocation out of proportion to the input — and whatever it accepts
// the encoder accepts too and re-encodes to the same size, or, accepted
// as an older format version, to exactly what that version spends on top
// less (Layout.StoredSize: parent offsets, the headers of texts version 3
// fuses, their type entry). The checked-in corpus under testdata/fuzz
// holds records of a bulk-loaded and a node-by-node-built corpus play in
// all three versions; the older two are decode-only inputs by nature —
// nothing writes them.
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
		// Every node but the root spends an embedded header of input — of
		// the input's own version — or is the text of a fused element that
		// spends one, and payload bytes are input bytes: the tree cannot
		// outgrow its image.
		nodes, payload := 0, 0
		rec.Root.Walk(func(n *Node) bool {
			nodes++
			payload += len(n.Payload)
			return true
		})
		if nodes > 2+2*len(data)/EmbeddedHeaderSize || payload > len(data) {
			t.Fatalf("%d nodes and %d payload bytes decoded from %d input bytes", nodes, payload, len(data))
		}
		// What Decode accepts, Measure accepts, and the image is exactly as
		// long as its tree encodes to in the image's version: no shape only
		// the decoder knows (an embedded scaffolding aggregate was one, until
		// the splice path stopped re-measuring stored records; an unfused
		// text-only element in a version 3 image would be another) and no
		// slack in the type table.
		var l Layout
		if err := Measure(rec, &l); err != nil {
			t.Fatalf("Measure rejects a record Decode accepted: %v", err)
		}
		if l.StoredSize(rec) != len(data) {
			t.Fatalf("accepted %d bytes of version %d, its tree is stored in %d", len(data), data[0], l.StoredSize(rec))
		}
		enc, err := l.Emit(nil, rec)
		if err != nil {
			t.Fatalf("re-encode of an accepted record: %v", err)
		}
		if len(enc) != l.Size() || enc[0] != FormatVersion || (data[0] == FormatVersion && len(enc) != len(data)) {
			t.Fatalf("accepted %d bytes of version %d, re-encode measures %d and writes %d of version %d",
				len(data), data[0], l.Size(), len(enc), enc[0])
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(Encode(rec)): %v", err)
		}
		if !Equal(again.Root, rec.Root) || again.ParentRID != rec.ParentRID {
			t.Fatal("Decode(Encode(rec)) is not rec")
		}
		if enc2, err := Encode(again); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not canonical (err %v)", err)
		}
	})
}

// addRecordSeeds adds FuzzDecode's generated seeds: the paper's Figure 2
// record, a scaffolding root over a proxy, and random records, each in
// all three format versions.
func addRecordSeeds(f *testing.F) {
	var seeds []*Record
	seeds = append(seeds,
		&Record{Root: figure2(), ParentRID: records.RID{Page: 77, Slot: 3}},
		&Record{Root: NewScaffoldAggregate().AppendChild(NewProxy(records.RID{Page: 5, Slot: 1})).AppendChild(NewTextLiteral("tail"))})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		seeds = append(seeds, randomRecord(rng))
	}
	for _, encode := range []func(*Record) ([]byte, error){Encode, refEncodeV1, refEncodeV2} {
		for _, rec := range seeds {
			buf, err := encode(rec)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(buf)
		}
	}
}
