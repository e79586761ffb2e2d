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
// must survive a re-encode. The checked-in corpus under testdata/fuzz
// holds records of a bulk-loaded and a node-by-node-built corpus play.
func FuzzDecode(f *testing.F) {
	seed := func(rec *Record) {
		buf, err := Encode(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	seed(&Record{Root: figure2(), ParentRID: records.RID{Page: 77, Slot: 3}})
	seed(&Record{Root: NewScaffoldAggregate().AppendChild(NewProxy(records.RID{Page: 5, Slot: 1})).AppendChild(NewTextLiteral("tail"))})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		seed(randomRecord(rng))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("Decode error outside ErrCorruptRecord: %v", err)
			}
			return
		}
		// Every node but the root spends an embedded header of input, and
		// payload bytes are input bytes: the tree cannot outgrow its image.
		nodes, payload := 0, 0
		rec.Root.Walk(func(n *Node) bool {
			nodes++
			payload += len(n.Payload)
			return true
		})
		if nodes > 1+len(data)/EmbeddedHeaderSize || payload > len(data) {
			t.Fatalf("%d nodes and %d payload bytes decoded from %d input bytes", nodes, payload, len(data))
		}
		// Decode is laxer than the encoder in two known ways: it does
		// not insist that scaffolding aggregates stand alone, and it lets an
		// empty aggregate sit past the 16-bit offset range.
		enc, err := Encode(rec)
		if err != nil {
			if !errors.Is(err, ErrBadNode) && !errors.Is(err, ErrTooLarge) {
				t.Fatalf("re-encode of an accepted record: %v", err)
			}
			return
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
