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
// as format version 1, to exactly its parent offsets less. The
// checked-in corpus under testdata/fuzz holds records of a bulk-loaded
// and a node-by-node-built corpus play in both versions.
func FuzzDecode(f *testing.F) {
	var seeds []*Record
	seeds = append(seeds,
		&Record{Root: figure2(), ParentRID: records.RID{Page: 77, Slot: 3}},
		&Record{Root: NewScaffoldAggregate().AppendChild(NewProxy(records.RID{Page: 5, Slot: 1})).AppendChild(NewTextLiteral("tail"))})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		seeds = append(seeds, randomRecord(rng))
	}
	for _, encode := range []func(*Record) ([]byte, error){Encode, refEncodeV1} {
		for _, rec := range seeds {
			buf, err := encode(rec)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(buf)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("Decode error outside ErrCorruptRecord: %v", err)
			}
			return
		}
		// Every node but the root spends an embedded header of input — of
		// the input's own version — and payload bytes are input bytes: the
		// tree cannot outgrow its image.
		hdr := EmbeddedHeaderSize
		if data[0] == formatVersion1 {
			hdr = embeddedHeaderSizeV1
		}
		nodes, payload := 0, 0
		rec.Root.Walk(func(n *Node) bool {
			nodes++
			payload += len(n.Payload)
			return true
		})
		if nodes > 1+len(data)/hdr || payload > len(data) {
			t.Fatalf("%d nodes and %d payload bytes decoded from %d input bytes", nodes, payload, len(data))
		}
		// What Decode accepts, Measure accepts, and the re-encode has the
		// size of the input less the parent offsets a version 1 input
		// carried: no shape only the decoder knows (an embedded scaffolding
		// aggregate was one, until the splice path stopped re-measuring
		// stored records) and no slack in the type table.
		want := len(data) - (hdr-EmbeddedHeaderSize)*(nodes-1)
		var l Layout
		if err := Measure(rec, &l); err != nil {
			t.Fatalf("Measure rejects a record Decode accepted: %v", err)
		}
		enc, err := l.Emit(nil, rec)
		if err != nil {
			t.Fatalf("re-encode of an accepted record: %v", err)
		}
		if l.Size() != want || len(enc) != want || enc[0] != formatVersion {
			t.Fatalf("accepted %d bytes of version %d, re-encode measures %d and writes %d of version %d, want %d",
				len(data), data[0], l.Size(), len(enc), enc[0], want)
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
