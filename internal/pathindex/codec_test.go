package pathindex

import (
	"encoding/binary"
	"errors"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"natix/internal/dict"
	"natix/internal/pagedev"
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

// summaryOf is the summary Put writes for x over the directory dir.
func summaryOf(x *Index, dir map[dict.LabelID]dirEntry) *summary {
	return &summary{version: indexVersion, paths: x.paths, root: x.root, nodes: x.nodes, dir: dir}
}

func TestSummaryCodecRoundTrip(t *testing.T) {
	x, dir := sampleIndex()
	sum, err := decodeSummary(encodeSummary(nil, summaryOf(x, dir)))
	if err != nil {
		t.Fatal(err)
	}
	if sum.version != indexVersion || sum.root != x.root || sum.nodes != x.nodes || !reflect.DeepEqual(sum.paths, x.paths) {
		t.Fatalf("summary = %+v, want paths %+v root %d nodes %d", sum, x.paths, x.root, x.nodes)
	}
	if !reflect.DeepEqual(sum.dir, dir) {
		t.Fatalf("directory = %+v, want %+v", sum.dir, dir)
	}
}

func TestPostingsCodecRoundTrip(t *testing.T) {
	x, _ := sampleIndex()
	for label, want := range x.postings {
		got, err := decodePostings(indexVersion, encodePostings(nil, want), x.NumPaths(), x.nodes)
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
	sumBlob := encodeSummary(nil, summaryOf(x, dir))
	postBlob := encodePostings(nil, x.postings[6])

	if _, err := decodeSummary([]byte("junk")); err == nil {
		t.Error("decodeSummary accepted junk")
	}
	if _, err := decodeSummary(sumBlob[:17]); err == nil {
		t.Error("decodeSummary accepted a truncated blob")
	}
	if _, err := decodePostings(indexVersion, []byte("junk"), 2, 2); err == nil {
		t.Error("decodePostings accepted junk")
	}
	if _, err := decodePostings(indexVersion, postBlob[:9], 2, 2); err == nil {
		t.Error("decodePostings accepted a truncated blob")
	}
	// A posting whose path id exceeds the summary must be rejected, not
	// left to panic the evaluator later.
	if _, err := decodePostings(indexVersion, postBlob, 1, 2); err == nil {
		t.Error("decodePostings accepted an out-of-range path id")
	}
	bad := encodePostings(nil, []Posting{{Seq: 0, Path: NilPath}})
	if _, err := decodePostings(indexVersion, bad, 2, 2); err == nil {
		t.Error("decodePostings accepted a nil path id")
	}
}

// genPostings returns a seeded seq-ordered list the way the builders
// make them — runs of one record under one path, facade indices
// ascending — roughened so that runs of every length, path changes
// inside a record, descending locals and far-apart pages all occur.
func genPostings(rng *rand.Rand) (list []Posting) {
	numPaths := 1 + rng.Intn(40)
	n := rng.Intn(400)
	if rng.Intn(10) == 0 {
		n = 1
	}
	oneNodeRecords := rng.Intn(8) == 0 // the 1:1 split matrix: a run break on every posting
	rid := records.RID{Page: pagedev.PageNo(1 + rng.Intn(1000)), Slot: uint16(rng.Intn(40))}
	path := PathID(1 + rng.Intn(numPaths))
	var seq uint32
	local := uint16(rng.Intn(8))
	for len(list) < n {
		switch {
		case oneNodeRecords || rng.Intn(25) == 0:
			// Next record: near by, far ahead or behind.
			switch rng.Intn(6) {
			case 0:
				rid.Page = pagedev.PageNo(1 + rng.Int63n(int64(pagedev.MaxPageNo)))
			case 1:
				rid.Page = pagedev.PageNo(1 + rng.Intn(int(rid.Page)))
			default:
				rid.Page += pagedev.PageNo(rng.Intn(3))
			}
			rid.Slot = uint16(rng.Intn(1 << (1 + rng.Intn(16))))
			local = uint16(rng.Intn(1 << (1 + rng.Intn(16))))
		case rng.Intn(30) == 0:
			path = PathID(1 + rng.Intn(numPaths))
		case rng.Intn(50) == 0:
			local = uint16(rng.Intn(int(local) + 1)) // does not ascend
		}
		size := uint32(rng.Intn(4))
		if rng.Intn(40) == 0 {
			size = uint32(rng.Intn(1 << 20))
		}
		list = append(list, Posting{Seq: seq, Size: size, RID: rid, Local: local, Path: path})
		step := uint32(1 + rng.Intn(12))
		if rng.Intn(100) == 0 {
			step = 1<<28 + uint32(rng.Intn(1<<20))
		}
		if seq > math.MaxUint32-step-1<<21 {
			break
		}
		seq += step
		if local < math.MaxUint16-8 {
			local += uint16(1 + rng.Intn(8))
		}
	}
	return list
}

// edgeLists are the shapes the seeded lists might miss.
func edgeLists() map[string][]Posting {
	r := func(page pagedev.PageNo, slot uint16) records.RID { return records.RID{Page: page, Slot: slot} }
	return map[string][]Posting{
		"empty":  {},
		"single": {{Seq: 7, Size: 3, RID: r(9, 2), Local: 5, Path: 2}},
		"one node per record": {
			{Seq: 0, Size: 4, RID: r(5, 0), Local: 0, Path: 1},
			{Seq: 1, Size: 0, RID: r(5, 1), Local: 0, Path: 2},
			{Seq: 2, Size: 0, RID: r(5, 2), Local: 0, Path: 2},
			{Seq: 3, Size: 0, RID: r(6, 0), Local: 0, Path: 2},
		},
		"local descends across a record change": {
			{Seq: 1, Size: 0, RID: r(5, 1), Local: 40, Path: 1},
			{Seq: 2, Size: 0, RID: r(5, 1), Local: 41, Path: 1},
			{Seq: 3, Size: 0, RID: r(5, 2), Local: 3, Path: 1},
			{Seq: 4, Size: 0, RID: r(5, 2), Local: 4, Path: 1},
		},
		"local repeats and descends inside a record": {
			{Seq: 1, Size: 0, RID: r(5, 1), Local: 40, Path: 1},
			{Seq: 2, Size: 0, RID: r(5, 1), Local: 40, Path: 1},
			{Seq: 3, Size: 0, RID: r(5, 1), Local: 12, Path: 1},
		},
		"pages go backwards and past 2^32": {
			{Seq: 1, Size: 0, RID: r(900, 1), Local: 0, Path: 1},
			{Seq: 2, Size: 0, RID: r(3, 1), Local: 0, Path: 1},
			{Seq: 3, Size: 0, RID: r(1<<32+17, 1), Local: 0, Path: 1},
			{Seq: 4, Size: 0, RID: r(pagedev.MaxPageNo, math.MaxUint16), Local: math.MaxUint16, Path: 1},
			{Seq: 5, Size: 0, RID: r(1, 0), Local: 0, Path: 1},
		},
		"seq gaps": {
			{Seq: 0, Size: 1 << 30, RID: r(5, 1), Local: 0, Path: 1},
			{Seq: 1 << 28, Size: 0, RID: r(5, 1), Local: 1, Path: 1},
			{Seq: 1<<29 + 1<<28, Size: 0, RID: r(5, 1), Local: 2, Path: 1},
			{Seq: math.MaxUint32 - 1, Size: 0, RID: r(5, 1), Local: 3, Path: 1},
		},
		"size zero and size nodes-1": {
			{Seq: 0, Size: 99, RID: r(5, 1), Local: 0, Path: 1},
			{Seq: 99, Size: 0, RID: r(5, 1), Local: 1, Path: 1},
		},
		// TITLE under PLAY, PERSONAE, ACT and SCENE, all in one record.
		"path changes inside a record": {
			{Seq: 1, Size: 1, RID: r(5, 1), Local: 1, Path: 2},
			{Seq: 4, Size: 1, RID: r(5, 1), Local: 4, Path: 4},
			{Seq: 30, Size: 1, RID: r(5, 1), Local: 30, Path: 7},
			{Seq: 33, Size: 1, RID: r(5, 1), Local: 33, Path: 9},
			{Seq: 80, Size: 1, RID: r(5, 1), Local: 80, Path: 9},
		},
	}
}

// listBounds returns path and node counts that just hold list.
func listBounds(list []Posting) (numPaths int, nodes uint32) {
	nodes = 1
	for _, p := range list {
		numPaths = max(numPaths, int(p.Path))
		nodes = max(nodes, p.Seq+p.Size+1)
	}
	return numPaths, nodes
}

// TestPostingsCodecDifferential holds the run codec to the fixed-width
// one it replaced: over seeded and hand-made lists, each decodes its
// own encoding to the list that went in, which makes the two agree.
func TestPostingsCodecDifferential(t *testing.T) {
	check := func(t *testing.T, list []Posting) {
		t.Helper()
		numPaths, nodes := listBounds(list)
		v3, err := decodePostings(indexVersion, encodePostings(nil, list), numPaths, nodes)
		if err != nil {
			t.Fatalf("v3: %v", err)
		}
		v2, err := decodePostings(fixedVersion, refEncodeV2(nil, list), numPaths, nodes)
		if err != nil {
			t.Fatalf("v2: %v", err)
		}
		if !slices.Equal(v3, list) || !slices.Equal(v2, list) {
			t.Fatalf("decoded lists differ from the %d postings encoded:\nv3 %v\nv2 %v\nin %v", len(list), v3, v2, list)
		}
	}
	for name, list := range edgeLists() {
		t.Run(name, func(t *testing.T) { check(t, list) })
	}
	runs, postings, bytes := 0, 0, 0
	for seed := int64(0); seed < 1500; seed++ {
		list := genPostings(rand.New(rand.NewSource(seed)))
		check(t, list)
		runs += Runs(list)
		postings += len(list)
		bytes += len(encodePostings(nil, list))
	}
	t.Logf("%d lists, %d postings in %d runs, %.2f B/posting", 1500, postings, runs, float64(bytes)/float64(postings))
}

// TestDecodersRejectMalformed feeds both decoders blobs that are wrong
// in exactly one way each.
func TestDecodersRejectMalformed(t *testing.T) {
	uv := func(vs ...uint64) []byte {
		out := []byte(postingsMagic)
		for _, v := range vs {
			out = binary.AppendUvarint(out, v)
		}
		return out
	}
	const numPaths, nodes = 3, 100
	// A well-formed two-run blob the cases below are variations of:
	// count 3; run (page +5, slot 1, path 2, n 2): (seq 10, size 0,
	// local 4), (+1, 0, +1); run (page +1, slot 0, path 3, n 1): (+5, 2, 0).
	// A page delta is a zigzag varint: +5 is 10, +1 is 2.
	good := uv(3, 10, 1, 2, 2, 10, 0, 4, 1, 0, 1, 2, 0, 3, 1, 5, 2, 0)
	if _, err := decodePostings(indexVersion, good, numPaths, nodes); err != nil {
		t.Fatalf("well-formed blob: %v", err)
	}
	v3 := map[string][]byte{
		"count beyond the blob":    uv(1<<40, 10, 1, 2, 2, 10, 0, 4),
		"count beyond its run":     uv(4, 10, 1, 2, 2, 10, 0, 4, 1, 0, 1, 2, 0, 3, 1, 5, 2, 0),
		"zero-length run":          uv(3, 10, 1, 2, 0, 10, 0, 4, 1, 0, 1, 2, 0, 3, 1, 5, 2, 0),
		"run longer than count":    uv(3, 10, 1, 2, 4, 10, 0, 4, 1, 0, 1, 2, 0, 3, 1, 5, 2, 0),
		"trailing byte":            append(slices.Clone(good), 0),
		"truncated":                good[:len(good)-1],
		"unterminated varint":      append(uv(1, 10, 1, 2, 1, 10, 0), 0x80),
		"page below zero":          uv(1, 11, 1, 2, 1, 10, 0, 4), // zigzag 11 = -6
		"page beyond 48 bits":      uv(1, 1<<50, 1, 2, 1, 10, 0, 4),
		"page wraps":               uv(2, 2, 1, 2, 1, 10, 0, 4, math.MaxUint64-1, 1, 2, 1, 1, 0, 0), // 1 + MaxInt64
		"slot beyond 16 bits":      uv(1, 10, 1<<16, 2, 1, 10, 0, 4),
		"local beyond 16 bits":     uv(1, 10, 1, 2, 1, 10, 0, 1<<16),
		"local delta beyond 16":    uv(2, 10, 1, 2, 2, 10, 0, 4, 1, 0, math.MaxUint16-3),
		"seq beyond 32 bits":       uv(1, 10, 1, 2, 1, 1<<32, 0, 4),
		"seq delta beyond 32 bits": uv(2, 10, 1, 2, 2, 10, 0, 4, math.MaxUint32-9, 0, 1),
		"size beyond 32 bits":      uv(1, 10, 1, 2, 1, 10, 1<<32, 4),
		"path beyond 32 bits":      uv(1, 10, 1, 1<<32+2, 1, 10, 0, 4),
		"path 0":                   uv(1, 10, 1, 0, 1, 10, 0, 4),
		"path beyond the summary":  uv(1, 10, 1, numPaths+1, 1, 10, 0, 4),
		"seq repeats":              uv(2, 10, 1, 2, 2, 10, 0, 4, 0, 0, 1),
		"seq+size reaches nodes":   uv(1, 10, 1, 2, 1, 90, 10, 4),
		"bad magic":                append([]byte("NXPQ"), good[4:]...),
		"magic only":               []byte(postingsMagic),
	}
	for name, blob := range v3 {
		if list, err := decodePostings(indexVersion, blob, numPaths, nodes); !errors.Is(err, ErrCorrupt) {
			t.Errorf("v3 %s: decoded to %v, %v", name, list, err)
		}
	}

	p := Posting{Seq: 10, Size: 0, RID: records.RID{Page: 5, Slot: 1}, Local: 4, Path: 2}
	with := func(edit func(*Posting)) []Posting {
		q := p
		q.Seq++
		edit(&q)
		return []Posting{p, q}
	}
	fixed := refEncodeV2(nil, []Posting{p})
	count := func(n uint32) []byte {
		out := slices.Clone(fixed)
		binary.LittleEndian.PutUint32(out[4:], n)
		return out
	}
	if _, err := decodePostings(fixedVersion, fixed, numPaths, nodes); err != nil {
		t.Fatalf("well-formed v2 blob: %v", err)
	}
	v2 := map[string][]byte{
		"count beyond the blob":   count(1 << 31),
		"count below the blob":    count(0),
		"trailing byte":           append(slices.Clone(fixed), 0),
		"truncated":               fixed[:len(fixed)-1],
		"no count":                fixed[:6],
		"path 0":                  refEncodeV2(nil, with(func(q *Posting) { q.Path = 0 })),
		"path beyond the summary": refEncodeV2(nil, with(func(q *Posting) { q.Path = numPaths + 1 })),
		"seq repeats":             refEncodeV2(nil, with(func(q *Posting) { q.Seq = p.Seq })),
		"seq descends":            refEncodeV2(nil, with(func(q *Posting) { q.Seq = p.Seq - 1 })),
		"seq+size reaches nodes":  refEncodeV2(nil, with(func(q *Posting) { q.Size = nodes - q.Seq })),
		"seq+size wraps":          refEncodeV2(nil, with(func(q *Posting) { q.Size = math.MaxUint32 })),
	}
	for name, blob := range v2 {
		if list, err := decodePostings(fixedVersion, blob, numPaths, nodes); !errors.Is(err, ErrCorrupt) {
			t.Errorf("v2 %s: decoded to %v, %v", name, list, err)
		}
	}
}

// TestSummaryRejectsInconsistency covers what decodeSummary checks
// beyond the blob's framing.
func TestSummaryRejectsInconsistency(t *testing.T) {
	x, dir := sampleIndex()
	for name, edit := range map[string]func(*summary){
		"unknown version":                func(s *summary) { s.version = 4 },
		"depth not parent's plus one":    func(s *summary) { s.paths[2].Depth = 3 },
		"root path below depth 1":        func(s *summary) { s.paths[1].Depth = 0 },
		"directory above the summary":    func(s *summary) { s.dir[6] = dirEntry{count: 2, rid: s.dir[6].rid} },
		"directory below the summary":    func(s *summary) { s.paths[2].Count = 5 },
		"label without a posting list":   func(s *summary) { delete(s.dir, 6) },
		"posting list without its label": func(s *summary) { s.dir[9] = dirEntry{count: 1, rid: s.dir[6].rid} },
	} {
		sum := summaryOf(x, maps.Clone(dir))
		sum.paths = slices.Clone(sum.paths)
		edit(sum)
		if got, err := decodeSummary(encodeSummary(nil, sum)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decoded to %+v, %v", name, got, err)
		}
	}
}

// TestPutRefusesInvalidList checks that a list the decoder would
// reject is not written: Put fails and the previous index stays live.
func TestPutRefusesInvalidList(t *testing.T) {
	s, err := Open(newRM(t))
	if err != nil {
		t.Fatal(err)
	}
	x, _ := sampleIndex()
	if err := s.Put("d", x, nil); err != nil {
		t.Fatal(err)
	}
	rid := records.RID{Page: 3}
	for name, list := range map[string][]Posting{
		"unsorted":          {{Seq: 1, RID: rid, Path: 2}, {Seq: 0, RID: rid, Path: 2}},
		"beyond the nodes":  {{Seq: 1, Size: 1, RID: rid, Path: 2}},
		"off the summary":   {{Seq: 1, RID: rid, Path: 3}},
		"page over 48 bits": {{Seq: 1, RID: records.RID{Page: pagedev.MaxPageNo + 1}, Path: 2}},
	} {
		bad, _ := sampleIndex()
		bad.postings[6] = list
		bad.paths[2].Count = uint32(len(list))
		if err := s.Put("d", bad, nil); err == nil {
			t.Fatalf("Put stored a list that is %s", name)
		}
		s.InvalidateCache()
		h, err := s.Get("d")
		if err != nil {
			t.Fatal(err)
		}
		if got, err := h.Postings(6); err != nil || !slices.Equal(got, x.postings[6]) {
			t.Fatalf("after refusing a list that is %s: postings %v, %v; want %v", name, got, err, x.postings[6])
		}
	}
}
