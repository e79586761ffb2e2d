package pathindex

import (
	"errors"
	"maps"
	"reflect"
	"slices"
	"testing"

	"natix/internal/dict"
	"natix/internal/records"
)

// The decoders of the three index blobs read bytes that passed a page
// checksum and nothing else. Each target holds its decoder to the same
// contract: no panic, no hang, every rejection an ErrCorrupt, and
// whatever is accepted encodes again to a blob that decodes to the same
// value. The seed corpus under testdata/fuzz is the blobs of real
// indexes (fuzzseed_test.go writes and checks it).

// FuzzDecodePostings covers both postings layouts: the first byte of
// the input picks the version (even 2, odd 3), the rest is the blob.
func FuzzDecodePostings(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, numPaths, nodes uint32) {
		if len(data) == 0 {
			return
		}
		version, encode := uint16(fixedVersion), refEncodeV2
		if data[0]&1 == 1 {
			version, encode = indexVersion, encodePostings
		}
		list, err := decodePostings(version, data[1:], int(numPaths), nodes)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejected with %v, not an ErrCorrupt", err)
			}
			return
		}
		again, err := decodePostings(version, encode(nil, list), int(numPaths), nodes)
		if err != nil || !slices.Equal(again, list) {
			t.Fatalf("version %d accepted %v, which re-encodes to %v, %v", version, list, again, err)
		}
	})
}

func FuzzDecodeSummary(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sum, err := decodeSummary(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejected with %v, not an ErrCorrupt", err)
			}
			return
		}
		again, err := decodeSummary(encodeSummary(nil, sum))
		if err != nil || !reflect.DeepEqual(again, sum) {
			t.Fatalf("accepted %+v, which re-encodes to %+v, %v", sum, again, err)
		}
	})
}

func FuzzDecodeCatalog(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		entries := make(map[string]records.RID)
		if err := decodeCatalog(data, entries); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejected with %v, not an ErrCorrupt", err)
			}
			return
		}
		again := make(map[string]records.RID)
		if err := decodeCatalog(encodeCatalog(entries), again); err != nil || !maps.Equal(again, entries) {
			t.Fatalf("accepted %v, which re-encodes to %v, %v", entries, again, err)
		}
	})
}

// RawIndex returns name's stored blobs as they are on the pages.
func RawIndex(s *Store, name string) (summary []byte, lists map[dict.LabelID][]byte, err error) {
	s.InvalidateCache()
	h, err := s.Get(name)
	if err != nil {
		return nil, nil, err
	}
	if summary, err = s.blobs.Read(s.view.Load().entries[name]); err != nil {
		return nil, nil, err
	}
	lists = make(map[dict.LabelID][]byte)
	for label, e := range h.sum.dir {
		if lists[label], err = s.blobs.Read(e.rid); err != nil {
			return nil, nil, err
		}
	}
	return summary, lists, nil
}

// RawCatalog returns the store's catalog blob.
func RawCatalog(s *Store) ([]byte, error) { return s.blobs.Read(s.catalogID) }
