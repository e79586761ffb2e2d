package core

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"natix/internal/corpus"
	"natix/internal/dict"
	"natix/internal/noderep"
	"natix/internal/records"
	"natix/internal/xmlkit"
)

// playRef converts a corpus play to the reference shape, its element
// names labelled in corpus.ElementNames order.
func playRef(play *xmlkit.Node) *refNode {
	labels := map[string]dict.LabelID{}
	for i, name := range corpus.ElementNames {
		labels[name] = dict.LabelID(3 + i)
	}
	var conv func(n *xmlkit.Node) *refNode
	conv = func(n *xmlkit.Node) *refNode {
		if n.IsText() {
			return &refNode{isText: true, label: dict.Text, text: n.Text}
		}
		r := &refNode{label: labels[n.Name]}
		for _, c := range n.Children {
			r.children = append(r.children, conv(c))
		}
		return r
	}
	return conv(play)
}

// TestBulkFillsPages: corpus plays bulk-loaded at the default fill their
// pages — records are cut to the room left in the page being packed —
// without shredding the documents. Against the same plays with every
// record cut to the fixed budget, which leaves the rest of a page empty
// whenever the next record does not fit it: fewer pages, a fill over the
// record pages of at least 0.89 and at least 0.02 better, at most 16 %
// more records, and no more records under the smallest remainder worth
// filling than one per document. Every record fits a page and a
// document's pages are handed out in ascending order.
func TestBulkFillsPages(t *testing.T) {
	spec := corpus.DefaultSpec()
	spec.Seed = 1999
	var refs []*refNode
	for i := 0; i < 4; i++ {
		refs = append(refs, playRef(corpus.GeneratePlay(spec, i)))
	}
	type total struct {
		records, small, pages int64
		free                  int
	}
	load := func(t *testing.T, pageSize int, fixed bool) total {
		var sum total
		for _, ref := range refs {
			s := newStore(t, pageSize, Config{})
			var emitted []records.RID
			b := s.NewBulkBuilder(BulkOptions{OnRecord: func(rid records.RID, _ *noderep.Node) error {
				emitted = append(emitted, rid)
				return nil
			}})
			if fixed {
				b.minRoom = s.maxRecordSize() + 1 // no remainder is worth filling
			}
			tr := s.OpenTree(buildBulk(t, b, ref))
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if !refEqual(materialize(t, tr), ref) {
				t.Fatal("bulk-loaded play differs from its source")
			}
			for i, rid := range emitted {
				size, err := s.rm.Size(rid)
				if err != nil || size > s.maxRecordSize() {
					t.Fatalf("record %s: %d bytes (err %v), capacity %d", rid, size, err, s.maxRecordSize())
				}
				if size < s.maxRecordSize()/minRoomDivisor {
					sum.small++
				}
				if i > 0 && rid.Page < emitted[i-1].Page {
					t.Fatalf("record %d went to page %d after page %d", i, rid.Page, emitted[i-1].Page)
				}
				if i == 0 || rid.Page != emitted[i-1].Page {
					free, err := s.rm.PageFreeBytes(rid.Page)
					if err != nil {
						t.Fatal(err)
					}
					sum.free += free
				}
			}
			st := b.BatchStats()
			sum.records += st.Records
			sum.pages += st.Pages
		}
		return sum
	}
	for _, pageSize := range []int{2048, 8192} {
		got, fixed := load(t, pageSize, false), load(t, pageSize, true)
		fill := func(s total) float64 { return 1 - float64(s.free)/float64(int(s.pages)*pageSize) }
		t.Logf("%d-byte pages: %d records (%d small) on %d pages, fill %.3f; cut to the fixed budget %d (%d small) on %d, fill %.3f",
			pageSize, got.records, got.small, got.pages, fill(got), fixed.records, fixed.small, fixed.pages, fill(fixed))
		if got.pages >= fixed.pages || fill(got) < 0.89 || fill(got) < fill(fixed)+0.02 {
			t.Errorf("%d-byte pages: %d pages at fill %.3f; cut to the fixed budget, %d at %.3f", pageSize, got.pages, fill(got), fixed.pages, fill(fixed))
		}
		if got.records*100 > fixed.records*116 || got.small > fixed.small+int64(len(refs)) {
			t.Errorf("%d-byte pages: %d records, %d of them small; cut to the fixed budget, %d and %d", pageSize, got.records, got.small, fixed.records, fixed.small)
		}
	}
}

// imageV1 rewrites a format version 2 record image as version 1: the same
// record header, type table and standalone header, and behind every
// embedded header's type index and size the offset of its parent's
// header. (The version 1 encoder proper is noderep's test reference; this
// is its layout applied to an image, for a package that cannot import
// another's test files.)
func imageV1(img []byte) []byte {
	u16 := func(b []byte) int { return int(binary.LittleEndian.Uint16(b)) }
	root := 4 + 4*u16(img[2:])
	out := append([]byte(nil), img[:root+noderep.StandaloneHeaderSize]...)
	out[0] = 1
	var content func(pos, end, ti, parentOff int)
	content = func(pos, end, ti, parentOff int) {
		if noderep.Kind(img[4+4*ti]&3) != noderep.KindAggregate {
			out = append(out, img[pos:end]...)
			return
		}
		for pos < end {
			cs := u16(img[pos+2:])
			hdr := len(out)
			out = append(out, img[pos], img[pos+1], 0, 0, byte(parentOff), byte(parentOff>>8))
			content(pos+noderep.EmbeddedHeaderSize, pos+noderep.EmbeddedHeaderSize+cs, u16(img[pos:]), hdr)
			binary.LittleEndian.PutUint16(out[hdr+2:], uint16(len(out)-hdr-6))
			pos += noderep.EmbeddedHeaderSize + cs
		}
	}
	content(root+noderep.StandaloneHeaderSize, len(img), u16(img[root:]), root)
	return out
}

// imageVersions counts the tree's stored record images by format version.
func imageVersions(t *testing.T, s *Store, root records.RID) map[byte]int {
	t.Helper()
	versions := map[byte]int{}
	rids, _ := recordsOf(t, s, root)
	for _, rid := range rids {
		img, err := s.rm.Read(rid)
		if err != nil {
			t.Fatal(err)
		}
		versions[img[0]]++
	}
	return versions
}

// TestVersion1StoreUpgradesByEdit: a document whose records are all
// stored as format version 1 images opens, passes the invariant check and
// reads back as the same document; a node insert rewrites the one record
// it touches as version 2, the next insert into that record is a splice,
// and the mixed-version document still passes the check.
func TestVersion1StoreUpgradesByEdit(t *testing.T) {
	ref := playRef(corpus.GeneratePlay(corpus.SmallSpec(1), 0))
	built := newStore(t, 2048, Config{})
	// Version 1 images are 2 bytes a node longer: leave them the room.
	root := buildBulk(t, built.NewBulkBuilder(BulkOptions{FillFactor: 0.75}), ref)
	rids, _ := recordsOf(t, built, root)
	for _, rid := range rids {
		img, err := built.rm.Read(rid)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := noderep.Decode(img)
		if err != nil {
			t.Fatal(err)
		}
		v1 := imageV1(img)
		if want := len(img) + 2*(rec.Root.CountNodes()-1); len(v1) != want {
			t.Fatalf("record %s: version 1 image has %d bytes, want %d", rid, len(v1), want)
		}
		if err := built.rm.Update(rid, v1); err != nil {
			t.Fatal(err)
		}
	}

	// A store of its own over the same records: nothing parsed is cached.
	s := New(built.rm, Config{})
	tr := s.OpenTree(root)
	if v := imageVersions(t, s, root); v[1] != len(rids) || len(v) != 1 {
		t.Fatalf("images by version before the first read: %v, want %d of version 1", v, len(rids))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("version 1 document: %v", err)
	}
	if !refEqual(materialize(t, tr), ref) {
		t.Fatal("version 1 document reads back differently")
	}

	// Two lines into the first speech of the last scene.
	path := Path{}
	for n := ref; ; {
		last := -1
		for i, c := range n.children {
			if !c.isText && len(c.children) > 0 && !c.children[0].isText {
				last = i
			}
		}
		if last < 0 {
			break
		}
		path, n = append(path, last), n.children[last]
	}
	model := ref.clone()
	speech := modelAt(model, path)
	for i := 0; i < 2; i++ {
		before := s.Stats()
		line := noderep.NewAggregate(speech.children[len(speech.children)-1].label)
		if err := tr.InsertChild(path, 1, line); err != nil {
			t.Fatal(err)
		}
		speech.children = append(speech.children[:1], append([]*refNode{{label: line.Label}}, speech.children[1:]...)...)
		after := s.Stats()
		rewritten, spliced := after.RecordsRewritten-before.RecordsRewritten, after.RecordsSpliced-before.RecordsSpliced
		if i == 0 && (rewritten != 1 || spliced != 0) {
			t.Fatalf("first edit of a version 1 record: %d records rewritten, %d spliced; want a full encode of one", rewritten, spliced)
		}
		if i == 1 && (rewritten != 0 || spliced != 1) {
			t.Fatalf("second edit of the record: %d records rewritten, %d spliced; want one splice", rewritten, spliced)
		}
		if v := imageVersions(t, s, tr.RootRID()); v[2] != 1 || v[1] != len(rids)-1 {
			t.Fatalf("images by version after edit %d: %v, want one of version 2 and %d of version 1", i, v, len(rids)-1)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("mixed-version document after edit %d: %v", i, err)
		}
	}
	if !refEqual(materialize(t, tr), model) {
		t.Fatal("mixed-version document differs from the model")
	}

	// Edited on, the document upgrades record by record — no edit brings a
	// version 1 image back — and passes the check at every mix.
	rng := rand.New(rand.NewSource(5))
	left := len(rids) - 1
	for i := 0; i < 40; i++ {
		var aggs []Path
		modelPaths(model, nil, true, &aggs)
		p := aggs[rng.Intn(len(aggs))]
		m := modelAt(model, p)
		idx := rng.Intn(len(m.children) + 1)
		if err := tr.InsertChild(p, idx, noderep.NewTextLiteral("upgraded")); err != nil {
			t.Fatal(err)
		}
		m.children = append(m.children[:idx], append([]*refNode{{isText: true, label: dict.Text, text: "upgraded"}}, m.children[idx:]...)...)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		v := imageVersions(t, s, tr.RootRID())
		if v[1] > left || v[1]+v[2] < len(rids) {
			t.Fatalf("edit %d: images by version %v, %d of version 1 before it", i, v, left)
		}
		left = v[1]
	}
	if left == len(rids)-1 {
		t.Fatal("the edit script upgraded no further record")
	}
	if !refEqual(materialize(t, tr), model) {
		t.Fatal("document differs from the model after the edit script")
	}
}
