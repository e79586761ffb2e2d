package pathindex

import (
	"reflect"
	"testing"

	"natix/internal/dict"
	"natix/internal/records"
)

// sampleIndex builds a two-path index by hand: <A><B/></A>-shaped.
func sampleIndex() (*Index, map[dict.LabelID]dirEntry) {
	x := NewIndex()
	pA := x.InternPath(NilPath, 5)
	pB := x.InternPath(pA, 6)
	x.root = 5
	x.nodes = 2
	x.paths[pA].Count = 1
	x.paths[pB].Count = 1
	x.postings[5] = []Posting{{Seq: 0, Size: 1, RID: records.RID{Page: 3}, Local: 0, Path: pA}}
	x.postings[6] = []Posting{{Seq: 1, Size: 0, RID: records.RID{Page: 3}, Local: 1, Path: pB}}
	dir := map[dict.LabelID]dirEntry{
		5: {count: 1, rid: records.RID{Page: 7, Slot: 1}},
		6: {count: 1, rid: records.RID{Page: 7, Slot: 2}},
	}
	return x, dir
}

func TestSummaryCodecRoundTrip(t *testing.T) {
	x, dir := sampleIndex()
	sum, err := decodeSummary(encodeSummary(nil, x, dir))
	if err != nil {
		t.Fatal(err)
	}
	if sum.root != x.root || sum.nodes != x.nodes || !reflect.DeepEqual(sum.paths, x.paths) {
		t.Fatalf("summary = %+v, want paths %+v root %d nodes %d", sum, x.paths, x.root, x.nodes)
	}
	if !reflect.DeepEqual(sum.dir, dir) {
		t.Fatalf("directory = %+v, want %+v", sum.dir, dir)
	}
}

func TestPostingsCodecRoundTrip(t *testing.T) {
	x, _ := sampleIndex()
	for label, want := range x.postings {
		got, err := decodePostings(encodePostings(nil, want), x.NumPaths())
		if err != nil {
			t.Fatalf("label %d: %v", label, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("label %d: %+v, want %+v", label, got, want)
		}
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	x, dir := sampleIndex()
	sumBlob := encodeSummary(nil, x, dir)
	postBlob := encodePostings(nil, x.postings[6])

	if _, err := decodeSummary([]byte("junk")); err == nil {
		t.Error("decodeSummary accepted junk")
	}
	if _, err := decodeSummary(sumBlob[:17]); err == nil {
		t.Error("decodeSummary accepted a truncated blob")
	}
	if _, err := decodePostings([]byte("junk"), 2); err == nil {
		t.Error("decodePostings accepted junk")
	}
	if _, err := decodePostings(postBlob[:9], 2); err == nil {
		t.Error("decodePostings accepted a truncated blob")
	}
	// A posting whose path id exceeds the summary must be rejected, not
	// left to panic the evaluator later.
	if _, err := decodePostings(postBlob, 1); err == nil {
		t.Error("decodePostings accepted an out-of-range path id")
	}
	bad := encodePostings(nil, []Posting{{Seq: 0, Path: NilPath}})
	if _, err := decodePostings(bad, 2); err == nil {
		t.Error("decodePostings accepted a nil path id")
	}
}
