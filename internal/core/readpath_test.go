package core

import (
	"fmt"
	"testing"

	"natix/internal/corpus"
	"natix/internal/noderep"
	"natix/internal/records"
)

// TestFacadeIndexesAgree: on every record of a store, the pre-order
// enumeration of the decoded tree's facade nodes (the order the path-index
// builder numbers postings in) and the walk over the record's image (FacadeWalker,
// which resolves them) give every facade node the same index, and at
// that index the same kind, label, literal type and payload; one past
// the last index is missing on both. The stores: the paper's 37 plays,
// bulk-loaded, and a play whose records were all format version 1 images,
// upgraded.
func TestFacadeIndexesAgree(t *testing.T) {
	t.Run("37-plays", func(t *testing.T) {
		plays := corpus.Generate(corpus.DefaultSpec())
		s := newStore(t, 8192, Config{CacheRecords: 4096})
		nodes := 0
		for _, play := range plays {
			root := buildBulk(t, s.NewBulkBuilder(BulkOptions{}), playRef(play))
			nodes += facadesAgree(t, s, root)
		}
		if want := corpus.Measure(plays).Nodes; nodes < want {
			t.Fatalf("%d facade nodes compared, the corpus has %d", nodes, want)
		}
	})
	t.Run("version-1", func(t *testing.T) {
		built := newStore(t, 2048, Config{})
		root := buildBulk(t, built.NewBulkBuilder(BulkOptions{FillFactor: 0.7}), playRef(corpus.GeneratePlay(corpus.SmallSpec(1), 0)))
		rids := downgradeStore(t, built, root, 1)
		s := New(built.rm, Config{CacheRecords: 4096})
		if v := imageVersions(t, s, root); v[1] != len(rids) {
			t.Fatalf("images by version: %v, want all %d of version 1", v, len(rids))
		}
		if n, err := s.OpenTree(root).UpgradeRecords(); err != nil || n != len(rids) {
			t.Fatalf("upgraded %d of %d records (err %v)", n, len(rids), err)
		}
		facadesAgree(t, s, root)
	})
}

// facadesAgree holds the image walk of every record of the tree at root
// to the enumeration of its decoded tree and returns the number of
// facade nodes compared.
func facadesAgree(t *testing.T, s *Store, root records.RID) int {
	t.Helper()
	rids, _ := recordsOf(t, s, root)
	var w FacadeWalker
	var r ReadRef
	total := 0
	for _, rid := range rids {
		rec, err := refLoadRecord(s, rid)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Load(s, rid); err != nil {
			t.Fatal(err)
		}
		n := 0
		rec.Root.Walk(func(node *noderep.Node) bool {
			if !isFacade(node) {
				return true
			}
			idx := n
			if err := w.Ref(idx, &r); err != nil {
				t.Fatalf("record %s: facade %d over the image: %v", rid, idx, err)
			}
			var payload string
			if r.IsLiteral() {
				payload = r.im.Payload(&r.n)
			}
			if r.rid != rid || r.n.Kind != node.Kind || r.n.Label != node.Label || r.n.LitType != node.LitType ||
				r.n.Scaffold != node.Scaffold || payload != string(node.Payload) {
				t.Fatalf("record %s facade %d: the image reads %s %d %q, the decoded tree %s %d %q",
					rid, idx, r.n.Kind, r.n.Label, payload, node.Kind, node.Label, node.Payload)
			}
			n++
			return true
		})
		if err := w.Ref(n, &r); err == nil {
			t.Fatalf("record %s: facade %d past the last of %d resolves over the image", rid, n, n)
		}
		total += n
	}
	return total
}

// FacadeIndex returns the node's facade index: its position in its
// record's facade enumeration, the count of the decoded record's facade
// nodes before it in pre-order. A search of the record's facade order,
// for tests only.
func (r *ReadRef) FacadeIndex() (int, error) {
	var n noderep.ImageNode
	for i := 0; r.im.Facade(&n, i); i++ {
		if n.Index == r.n.Index && n.Kind == r.n.Kind {
			return i, nil
		}
	}
	return 0, fmt.Errorf("core: node not found in record %s", r.rid)
}
