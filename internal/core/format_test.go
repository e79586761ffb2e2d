package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
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
// record pages of at least 0.88 and at least 0.02 better, at most 16 %
// more records, and no more records under the smallest remainder worth
// filling than one per document. Every record fits a page and a
// document's pages are handed out in ascending order. (The fill bound was
// 0.89 before record format 3: a play is 7 % smaller since, the
// half-empty page each of these one-document stores ends on is not, so
// it weighs more — over 16 plays the 8 KB fill is 0.893 where it was
// 0.897; over these four, 0.890 where it was 0.912.)
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
		if got.pages >= fixed.pages || fill(got) < 0.88 || fill(got) < fill(fixed)+0.02 {
			t.Errorf("%d-byte pages: %d pages at fill %.3f; cut to the fixed budget, %d at %.3f", pageSize, got.pages, fill(got), fixed.pages, fill(fixed))
		}
		if got.records*100 > fixed.records*116 || got.small > fixed.small+int64(len(refs)) {
			t.Errorf("%d-byte pages: %d records, %d of them small; cut to the fixed budget, %d and %d", pageSize, got.records, got.small, fixed.records, fixed.small)
		}
	}
}

// oldImage re-encodes a stored record image in format version 1 or 2:
// every node under a header of its own — 4 bytes, in version 1 two more
// for the offset of its parent's header — and every node type in the
// table, nothing fused. (The encoders proper of the old versions are
// noderep's test reference; this is their layout written out from the
// decoded tree, for a package that cannot import another's test files.)
func oldImage(t testing.TB, img []byte, version byte) []byte {
	t.Helper()
	rec, err := noderep.Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	typeOf := func(n *noderep.Node) [4]byte {
		k := [4]byte{byte(n.Kind), byte(n.Label), byte(n.Label >> 8), 0}
		if n.Scaffold {
			k[0] |= 4
		}
		if n.Kind == noderep.KindLiteral {
			k[3] = byte(n.LitType)
		}
		return k
	}
	var table [][4]byte
	index := func(n *noderep.Node) int {
		k := typeOf(n)
		if i := slices.Index(table, k); i >= 0 {
			return i
		}
		table = append(table, k)
		return len(table) - 1
	}
	rec.Root.Walk(func(n *noderep.Node) bool { index(n); return true })
	out := binary.LittleEndian.AppendUint16([]byte{version, 0}, uint16(len(table)))
	for _, k := range table {
		out = append(out, k[:]...)
	}
	rootOff := len(out)
	out = binary.LittleEndian.AppendUint16(out, uint16(index(rec.Root)))
	out = append(out, make([]byte, records.RIDSize)...)
	rec.ParentRID.Put(out[rootOff+2:])
	var content func(n *noderep.Node, hdrOff int)
	content = func(n *noderep.Node, hdrOff int) {
		switch n.Kind {
		case noderep.KindLiteral:
			out = append(out, n.Payload...)
		case noderep.KindProxy:
			out = append(out, make([]byte, records.RIDSize)...)
			n.Target.Put(out[len(out)-records.RIDSize:])
		default:
			for _, c := range n.Children {
				hdr := len(out)
				out = binary.LittleEndian.AppendUint16(out, uint16(index(c)))
				out = append(out, 0, 0)
				if version == 1 {
					out = binary.LittleEndian.AppendUint16(out, uint16(hdrOff))
				}
				body := len(out)
				content(c, hdr)
				binary.LittleEndian.PutUint16(out[hdr+2:], uint16(len(out)-body))
			}
		}
	}
	content(rec.Root, rootOff)
	return out
}

// oldImageSize is the arithmetic oldImage is held to: a version 3 image of
// size bytes grows by a header per text it fuses and by the #text type
// entry if all its texts are fused, and in version 1 by a parent offset
// per embedded node.
func oldImageSize(root *noderep.Node, size int, version byte) int {
	fused, typed := 0, false
	root.Walk(func(n *noderep.Node) bool {
		if n.FusedText() != nil {
			fused++
		} else if n.Kind == noderep.KindLiteral && n.Label == dict.Text && n.LitType == noderep.LitString &&
			(n.Parent == nil || n.Parent.FusedText() == nil) {
			typed = true
		}
		return true
	})
	size += noderep.EmbeddedHeaderSize * fused
	if fused > 0 && !typed {
		size += 4
	}
	if version == 1 {
		size += 2 * (root.CountNodes() - 1)
	}
	return size
}

// downgradeStore rewrites every record of the tree that is stored in the
// current format version as an image of the given older one — but for
// records so full that the longer old image would not fit a page — and
// drops the parsed records that describe the images replaced.
func downgradeStore(t testing.TB, s *Store, root records.RID, version byte) (rids []records.RID) {
	t.Helper()
	rids, _ = recordsOf(t, s, root)
	for _, rid := range rids {
		img, err := s.rm.Read(rid)
		if err != nil {
			t.Fatal(err)
		}
		if img[0] == version {
			continue
		}
		rec, err := noderep.Decode(img)
		if err != nil {
			t.Fatal(err)
		}
		old := oldImage(t, img, version)
		if want := oldImageSize(rec.Root, len(img), version); len(old) != want || old[0] != version {
			t.Fatalf("record %s: version %d image has %d bytes, want %d", rid, old[0], len(old), want)
		}
		if len(old) > s.maxRecordSize() {
			continue
		}
		if err := s.rm.Update(rid, old); err != nil {
			t.Fatal(err)
		}
		s.forget(rid)
	}
	return rids
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
// it touches in the current version, the next insert into that record is
// a splice, and the mixed-version document still passes the check.
func TestVersion1StoreUpgradesByEdit(t *testing.T) { testStoreUpgradesByEdit(t, 1) }

// TestVersion2StoreUpgradesByEdit: the same for a store written before
// text-only elements were fused (format version 2, PRs 21–22).
func TestVersion2StoreUpgradesByEdit(t *testing.T) { testStoreUpgradesByEdit(t, 2) }

func testStoreUpgradesByEdit(t *testing.T, old byte) {
	const cur = 3
	ref := playRef(corpus.GeneratePlay(corpus.SmallSpec(1), 0))
	built := newStore(t, 2048, Config{})
	// Images of the older versions are longer — 4 bytes a text-only
	// element, in version 1 another 2 a node: leave them the room.
	root := buildBulk(t, built.NewBulkBuilder(BulkOptions{FillFactor: 0.7}), ref)
	rids := downgradeStore(t, built, root, old)

	// A store of its own over the same records: nothing parsed is cached.
	s := New(built.rm, Config{})
	tr := s.OpenTree(root)
	if v := imageVersions(t, s, root); v[old] != len(rids) || len(v) != 1 {
		t.Fatalf("images by version before the first read: %v, want %d of version %d", v, len(rids), old)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("version %d document: %v", old, err)
	}
	if !refEqual(materialize(t, tr), ref) {
		t.Fatalf("version %d document reads back differently", old)
	}
	// The three ways a query reaches a node: the children of a context
	// node (materialize, above), the document-order cursor, and a posting's
	// (record, facade index) pair — held to the reference resolution, over
	// every facade node of every record.
	c, err := tr.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	err = c.WalkPreOrder(func(c *Cursor) bool {
		if c.IsLiteral() {
			ref := c.Ref()
			text, err := ref.StringValue()
			if err != nil {
				t.Fatal(err)
			}
			texts = append(texts, text)
		}
		return true
	})
	var want []string
	var collect func(r *refNode)
	collect = func(r *refNode) {
		if r.isText {
			want = append(want, r.text)
		}
		for _, c := range r.children {
			collect(c)
		}
	}
	collect(ref)
	if err != nil || !slices.Equal(texts, want) {
		t.Fatalf("cursor over the version %d document: %d texts, want %d (err %v)", old, len(texts), len(want), err)
	}
	_, facades := recordsOf(t, s, root)
	for i, rid := range rids {
		for idx := 0; idx < facades[i]; idx++ {
			got, err := s.RefByFacadeIndex(rid, idx)
			if err != nil {
				t.Fatal(err)
			}
			wantRef, err := refRefByFacadeIndex(s, rid, idx)
			if err != nil || !sameReadNode(got, wantRef, idx) {
				t.Fatalf("record %s facade %d resolves differently from the reference (err %v)", rid, idx, err)
			}
		}
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
			t.Fatalf("first edit of a version %d record: %d records rewritten, %d spliced; want a full encode of one", old, rewritten, spliced)
		}
		if i == 1 && (rewritten != 0 || spliced != 1) {
			t.Fatalf("second edit of the record: %d records rewritten, %d spliced; want one splice", rewritten, spliced)
		}
		if v := imageVersions(t, s, tr.RootRID()); v[cur] != 1 || v[old] != len(rids)-1 {
			t.Fatalf("images by version after edit %d: %v, want one of version %d and %d of version %d", i, v, cur, len(rids)-1, old)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("mixed-version document after edit %d: %v", i, err)
		}
	}
	if !refEqual(materialize(t, tr), model) {
		t.Fatal("mixed-version document differs from the model")
	}

	// Edited on, the document upgrades record by record — no edit brings an
	// old image back — and passes the check at every mix. The script first
	// puts texts at random places, then an empty element behind every
	// element there is, last to first, which reaches every record.
	rng := rand.New(rand.NewSource(5))
	left := len(rids) - 1
	var aggs []Path
	modelPaths(model, nil, true, &aggs)
	edit := func(i int, p Path, idx int, rn *refNode) {
		m := modelAt(model, p)
		if err := tr.InsertChild(p, idx, modelNode(rn)); err != nil {
			t.Fatal(err)
		}
		m.children = append(m.children[:idx], append([]*refNode{rn}, m.children[idx:]...)...)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		v := imageVersions(t, s, tr.RootRID())
		if v[old] > left || v[old]+v[cur] < len(rids) || len(v) > 2 {
			t.Fatalf("edit %d: images by version %v, %d of version %d before it", i, v, left, old)
		}
		left = v[old]
	}
	for i := 0; i < 40; i++ {
		p := aggs[rng.Intn(len(aggs))]
		edit(i, p, rng.Intn(len(modelAt(model, p).children)+1), &refNode{isText: true, label: dict.Text, text: "upgraded"})
	}
	if left == len(rids)-1 {
		t.Fatal("the edit script upgraded no further record")
	}
	for i := len(aggs) - 1; i >= 0 && left > 0; i-- {
		if p := aggs[i]; len(p) > 0 {
			edit(40+i, p[:len(p)-1], p[len(p)-1]+1, &refNode{label: modelAt(model, p).label})
		}
	}
	if left != 0 {
		t.Fatalf("%d records still of version %d after an edit beside every element", left, old)
	}
	if !refEqual(materialize(t, tr), model) {
		t.Fatal("document differs from the model after the edit script")
	}
}

// formatTwin is one document kept in two stores by the same operations:
// prod through the production path, which splices and writes format
// version 3, and ref through the reference path of the splice
// differential, which re-encodes the record of every edit whole and whose
// records are put back into format version 2 every fourth operation — so
// ref reads, edits and splits what a build before version 3 stored, with
// a header on every text. The two cut their records at different places
// (a version 2 record is longer); what they must agree on is the
// document.
type formatTwin struct {
	t        *testing.T
	prod     *Tree
	ref      *Tree
	model    *refNode
	ops      int
	memo     map[records.RID]storedRecord
	oldReads int // records of ref found in version 2 when they were next read
}

// newFormatTwin wraps two stores that hold model.
func newFormatTwin(t *testing.T, prod, ref *Tree, model *refNode) *formatTwin {
	tw := &formatTwin{t: t, prod: prod, ref: ref, model: model, memo: map[records.RID]storedRecord{}}
	tw.check()
	return tw
}

func (tw *formatTwin) insert(p Path, idx int, rn *refNode) {
	tw.t.Helper()
	if err := tw.prod.InsertChild(p, idx, modelNode(rn)); err != nil {
		tw.t.Fatalf("op %d: insert at %s[%d]: %v", tw.ops, p, idx, err)
	}
	if err := refInsertChild(tw.ref, p, idx, modelNode(rn)); err != nil {
		tw.t.Fatalf("op %d: version 2 twin: insert at %s[%d]: %v", tw.ops, p, idx, err)
	}
	m := modelAt(tw.model, p)
	m.children = append(m.children[:idx:idx], append([]*refNode{rn}, m.children[idx:]...)...)
	tw.done()
}

func (tw *formatTwin) remove(p Path) {
	tw.t.Helper()
	if err := tw.prod.Delete(p); err != nil {
		tw.t.Fatalf("op %d: delete %s: %v", tw.ops, p, err)
	}
	if err := refDelete(tw.ref, p); err != nil {
		tw.t.Fatalf("op %d: version 2 twin: delete %s: %v", tw.ops, p, err)
	}
	m, i := modelAt(tw.model, p[:len(p)-1]), p[len(p)-1]
	m.children = append(m.children[:i], m.children[i+1:]...)
	tw.done()
}

// done counts an operation; every 4th turns ref's records back into
// version 2 images, every 64th checks the twins.
func (tw *formatTwin) done() {
	switch tw.ops++; {
	case tw.ops%64 == 0:
		tw.check()
	case tw.ops%4 == 0:
		tw.downgrade()
	}
}

func (tw *formatTwin) downgrade() {
	tw.oldReads += imageVersions(tw.t, tw.ref.store, tw.ref.RootRID())[2]
	downgradeStore(tw.t, tw.ref.store, tw.ref.RootRID(), 2)
}

// check holds both stores to the model and to their invariants and every
// stored image of prod to the size a full encode of its tree has.
func (tw *formatTwin) check() {
	t := tw.t
	t.Helper()
	for name, tr := range map[string]*Tree{"version 3": tw.prod, "version 2": tw.ref} {
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("op %d: %s store: %v", tw.ops, name, err)
		}
		if !refEqual(materialize(t, tr), tw.model) {
			t.Fatalf("op %d: %s store differs from the model", tw.ops, name)
		}
	}
	_, stored := storedRecords(t, tw.prod.store, tw.prod.RootRID(), tw.memo)
	for _, sr := range stored {
		if sr.fresh && (sr.body[0] != noderep.FormatVersion || len(sr.body) != noderep.EncodedSize(sr.rec)) {
			t.Fatalf("op %d: an image of version %d and %d bytes, its tree encodes to %d", tw.ops, sr.body[0], len(sr.body), noderep.EncodedSize(sr.rec))
		}
	}
	tw.downgrade()
}

// edits runs the seeded script of the differential over the twins: the
// text of a text-only element deleted and put back (unfuse, fuse), a
// second child into a text-only element before or behind its text and
// sometimes out again (which leaves the text alone), and inserts and
// deletes at random places.
func (tw *formatTwin) edits(rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		var aggs []Path
		modelPaths(tw.model, Path{}, true, &aggs)
		p := aggs[rng.Intn(len(aggs))]
		m := modelAt(tw.model, p)
		textOnly := len(m.children) == 1 && m.children[0].isText
		switch k := rng.Intn(8); {
		case textOnly && k < 3:
			text := m.children[0]
			tw.remove(append(p.Clone(), 0))
			tw.insert(p, 0, text)
		case textOnly && k < 6:
			idx := rng.Intn(2)
			rn := &refNode{label: lLine}
			if rng.Intn(2) == 0 {
				rn = &refNode{isText: true, label: dict.Text, text: fmt.Sprintf("aside %d", i)}
			}
			tw.insert(p, idx, rn)
			if rng.Intn(2) == 0 {
				tw.remove(append(p.Clone(), idx))
			}
		case k == 7 && len(p) > 0:
			tw.remove(p)
		default:
			rn := &refNode{label: m.label}
			if rng.Intn(3) > 0 {
				rn = &refNode{isText: true, label: dict.Text, text: fmt.Sprintf("edit %d %s", i, strings.Repeat("ha", rng.Intn(40)))}
			}
			tw.insert(p, rng.Intn(len(m.children)+1), rn)
		}
	}
	tw.check()
}

// TestVersion3MatchesVersion2 is the twin-store differential of record
// format 3: a bulk-loaded play and a play built node by node in
// binary-tree BFS order, then edited by the script above, held in a store
// of version 3 images written by the production path and in one of
// version 2 images (formatTwin). At every checkpoint the two are the same
// document and pass the invariant check, and every image the production
// path wrote — spliced or not — is as long as a full encode of its tree.
// Over the BFS build, which puts each text into an element that is
// already there and empty, at least 97 % of the record writes are still
// splices.
func TestVersion3MatchesVersion2(t *testing.T) {
	play := corpus.GeneratePlay(corpus.DefaultSpec(), 0)
	model := playRef(play)
	const page = 8192
	cfg := Config{CacheRecords: 64}

	t.Run("bulk", func(t *testing.T) {
		prod, ref := newStore(t, page, cfg), newStore(t, page, cfg)
		pt := loadBulk(t, prod, model, BulkOptions{})
		// Version 2 images are longer: leave them the room.
		rt := loadBulk(t, ref, model, BulkOptions{FillFactor: 0.7})
		tw := newFormatTwin(t, pt, rt, model.clone())
		tw.edits(rand.New(rand.NewSource(3)), 400)
		ps := prod.Stats()
		t.Logf("%d operations: %d spliced, %d rewritten, %d splits; %d version 2 records read back", tw.ops, ps.RecordsSpliced, ps.RecordsRewritten, ps.Splits, tw.oldReads)
		if ps.RecordsSpliced == 0 || ps.RecordsRewritten == 0 || tw.oldReads == 0 {
			t.Fatal("the script does not cross both write paths over version 2 records")
		}
	})

	t.Run("bfs", func(t *testing.T) {
		prod, ref := newStore(t, page, cfg), newStore(t, page, cfg)
		pt, err := prod.CreateTree(model.label)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := ref.CreateTree(model.label)
		if err != nil {
			t.Fatal(err)
		}
		labels := map[string]dict.LabelID{}
		for i, name := range corpus.ElementNames {
			labels[name] = dict.LabelID(3 + i)
		}
		tw := newFormatTwin(t, pt, rt, &refNode{label: model.label})
		fusing := 0
		for _, op := range corpus.BinaryBFSOps(play) {
			rn := &refNode{isText: op.IsText, label: dict.Text, text: op.Text}
			if !op.IsText {
				rn = &refNode{label: labels[op.Name]}
			}
			before := prod.Stats().RecordsSpliced
			fuses := op.IsText && len(modelAt(tw.model, Path(op.ParentPath)).children) == 0
			tw.insert(Path(op.ParentPath), op.Index, rn)
			if fuses && prod.Stats().RecordsSpliced > before {
				fusing++
			}
		}
		tw.check()
		if !refEqual(tw.model, model) {
			t.Fatal("the BFS script does not build the play")
		}
		ps := prod.Stats()
		writes := ps.RecordsSpliced + ps.RecordsRewritten
		t.Logf("%d inserts: %d of %d record writes spliced (%.1f %%), %d of them fusing a text with its element; %d splits",
			tw.ops, ps.RecordsSpliced, writes, 100*float64(ps.RecordsSpliced)/float64(writes), fusing, ps.Splits)
		if ps.RecordsSpliced*100 < writes*97 {
			t.Fatalf("%d of %d record writes spliced, want at least 97 %%", ps.RecordsSpliced, writes)
		}
		if texts := len(corpus.BinaryBFSOps(play)) / 3; fusing < texts {
			t.Fatalf("%d fusing splices over the BFS build, want at least %d", fusing, texts)
		}
		tw.edits(rand.New(rand.NewSource(4)), 400)
	})
}
