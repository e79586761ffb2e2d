package dict

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// image builds a dictionary record: the count, then (length, bytes) per
// name, as encode writes it but with no padding.
func image(count int, names ...string) []byte {
	out := binary.LittleEndian.AppendUint16(nil, uint16(count))
	for _, n := range names {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(n)))
		out = append(out, n...)
	}
	return out
}

// TestDecodeRejectsMalformed: a record encode never writes is ErrCorrupt,
// not a dictionary that answers wrongly — a name twice (a second "LINE"
// would take Lookup over from the first), an empty user name, a reserved
// label out of place, a count the bytes cannot hold, bytes behind the
// last entry that are not encode's padding.
func TestDecodeRejectsMalformed(t *testing.T) {
	good := image(5, "", "#text", "#scaffold", "LINE", "SPEECH")
	if st, err := decode(good); err != nil || st.byName["LINE"] != 3 {
		t.Fatalf("a well-formed record: %v", err)
	}
	for name, b := range map[string][]byte{
		"a name twice":             image(5, "", "#text", "#scaffold", "LINE", "LINE"),
		"a reserved name twice":    image(4, "", "#text", "#scaffold", "#text"),
		"an empty user name":       image(4, "", "#text", "#scaffold", ""),
		"a name at id 0":           image(4, "X", "#text", "#scaffold", "LINE"),
		"a reserved label missing": image(2, "", "#text"),
		"a reserved label moved":   image(3, "", "#scaffold", "#text"),
		"a count past the bytes":   image(0xFFFF, "", "#text", "#scaffold"),
		"a count past the entries": image(6, "", "#text", "#scaffold", "LINE", "SPEECH"),
		"bytes behind the entries": append(image(4, "", "#text", "#scaffold", "LINE"), 0),
		"padding that is not zero": append(image(3, "", "#text"), 0, 0, 1),
		"one byte":                 {3},
	} {
		if _, err := decode(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decode error %v, want ErrCorrupt", name, err)
		}
	}
}

// FuzzDictDecode: on any input decode returns ErrCorrupt or a dictionary
// that encodes back to exactly the input, and never panics.
func FuzzDictDecode(f *testing.F) {
	var d Dict
	f.Add(d.encode(mustDecode(f, image(3, "", "#text", "#scaffold"))))
	f.Add(d.encode(mustDecode(f, image(6, "", "#text", "#scaffold", "PLAY", "@id", "LINE"))))
	f.Add(image(5, "", "#text", "#scaffold", "LINE", "LINE"))
	f.Add(image(4, "", "#text", "#scaffold", ""))
	f.Add(image(0xFFFF, "", "#text", "#scaffold"))
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := decode(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error outside ErrCorrupt: %v", err)
			}
			return
		}
		if out := d.encode(st); !bytes.Equal(out, b) {
			t.Fatalf("decoded %d bytes re-encode to %d other bytes", len(b), len(out))
		}
		for i, n := range st.names[1:] {
			if id, ok := st.byName[n]; !ok || int(id) != i+1 {
				t.Fatalf("name %q at id %d looks up as %d", n, i+1, id)
			}
		}
	})
}

func mustDecode(tb testing.TB, b []byte) *dictState {
	tb.Helper()
	st, err := decode(b)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}
