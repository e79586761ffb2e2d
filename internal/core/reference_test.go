package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"natix/internal/corpus"
	"natix/internal/dict"
	"natix/internal/noderep"
	"natix/internal/records"
)

// The implementations FacadeWalker and AppendReadText replaced, kept as
// the reference the differential tests below hold the new ones to: the
// walk of a decoded record from its root, and the text of a decoded
// subtree gathered a child list at a time.

// isFacade reports whether a physical node is part of the logical
// document (a non-scaffold aggregate or a literal), as opposed to the
// scaffolding proxies and helper aggregates introduced by splits.
func isFacade(n *noderep.Node) bool {
	switch n.Kind {
	case noderep.KindAggregate:
		return !n.Scaffold
	case noderep.KindLiteral:
		return true
	}
	return false
}

// refFindFacade returns the *seq-th facade node of the pre-order walk
// under n (proxies are leaves of the walk), counting *seq down as it
// goes; nil if the subtree has fewer facade nodes.
func refFindFacade(n *noderep.Node, seq *int) *noderep.Node {
	if isFacade(n) {
		if *seq == 0 {
			return n
		}
		*seq--
	}
	for _, c := range n.Children {
		if m := refFindFacade(c, seq); m != nil {
			return m
		}
	}
	return nil
}

// refRefByFacadeIndex is the old per-match resolver: a walk from the
// record root for every address.
func refRefByFacadeIndex(s *Store, rid records.RID, idx int) (NodeRef, error) {
	rec, err := s.loadRecord(rid)
	if err != nil {
		return NodeRef{}, err
	}
	seq := idx
	n := refFindFacade(rec.Root, &seq)
	if n == nil {
		return NodeRef{}, fmt.Errorf("core: facade node %d missing in record %s", idx, rid)
	}
	return NodeRef{rid: rid, node: n, rec: rec}, nil
}

// refTextContent is the old TextContent: a child list, a string and a
// byte slice per level.
func refTextContent(s *Store, ref NodeRef) (string, error) {
	if ref.IsLiteral() {
		v, err := ref.node.StringValue()
		if err != nil {
			return "", nil // non-string literal contributes nothing
		}
		return v, nil
	}
	kids, err := s.Children(ref)
	if err != nil {
		return "", err
	}
	var out []byte
	for _, k := range kids {
		part, err := refTextContent(s, k)
		if err != nil {
			return "", err
		}
		out = append(out, part...)
	}
	return string(out), nil
}

// diffTree is one stored tree of the differential matrix.
type diffTree struct {
	name  string
	store *Store
	tree  *Tree
}

// diffTrees stores one seeded random tree four ways at 2 KB pages:
// grown node by node under both split-matrix extremes (scaffold
// aggregates and proxies in play; one record per node) and bulk-loaded
// under both. cache sizes the parsed-record cache: 0 hands out a fresh
// parsed instance per load.
func diffTrees(t *testing.T, seed int64, cache int) []diffTree {
	t.Helper()
	model := genRefTree(rand.New(rand.NewSource(seed)), 6, 6, 0.3)
	// A typed literal in the mix: text read-out must skip it.
	model.children = append(model.children, &refNode{label: lLine})
	var out []diffTree
	for _, m := range []struct {
		name   string
		matrix func() *SplitMatrix
	}{{"other", AllOther}, {"standalone", AllStandalone}} {
		cfg := Config{Matrix: m.matrix(), CacheRecords: cache}
		s := newStore(t, 2048, cfg)
		tr := loadIncremental(t, s, model)
		if err := tr.InsertChild(Path{len(model.children) - 1}, 0, noderep.NewIntLiteral(dict.Text, 42)); err != nil {
			t.Fatal(err)
		}
		out = append(out, diffTree{"incremental/" + m.name, s, tr})
		s = newStore(t, 2048, cfg)
		out = append(out, diffTree{"bulk/" + m.name, s, loadBulk(t, s, model, BulkOptions{})})
	}
	return out
}

// recordsOf lists the records of a tree, root first, each with its
// number of facade nodes.
func recordsOf(t testing.TB, s *Store, root records.RID) (rids []records.RID, facades []int) {
	t.Helper()
	var visit func(rid records.RID)
	visit = func(rid records.RID) {
		rec, err := s.loadRecord(rid)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		var targets []records.RID
		rec.Root.Walk(func(nd *noderep.Node) bool {
			if isFacade(nd) {
				n++
			}
			if nd.Kind == noderep.KindProxy {
				targets = append(targets, nd.Target)
			}
			return true
		})
		rids, facades = append(rids, rid), append(facades, n)
		for _, target := range targets {
			visit(target)
		}
	}
	visit(root)
	return rids, facades
}

// sameNode reports whether two resolutions name the same node. With the
// record cache on that is pointer identity; without it each load parses
// a fresh instance, so the nodes are compared by content.
func sameNode(a, b NodeRef, cached bool) bool {
	if a.rid != b.rid {
		return false
	}
	if cached {
		return a.node == b.node && a.rec == b.rec
	}
	return a.node.Kind == b.node.Kind && a.node.Label == b.node.Label &&
		string(a.node.Payload) == string(b.node.Payload) && len(a.node.Children) == len(b.node.Children)
}

// sameReadNode reports whether a resolution over the record's image names
// the node b of the decoded record, b being facade node idx: the same
// record, type and payload, and the same place in the facade order.
func sameReadNode(a ReadRef, b NodeRef, idx int) bool {
	n := b.node
	if a.rid != b.rid || a.n.Kind != n.Kind || a.n.Label != n.Label || a.n.Scaffold != n.Scaffold {
		return false
	}
	if a.IsLiteral() && (a.n.LitType != n.LitType || string(a.im.Payload(&a.n)) != string(n.Payload)) {
		return false
	}
	i, err := a.FacadeIndex()
	return err == nil && i == idx
}

// TestFacadeWalkerMatchesReference resolves (record, facade index)
// addresses through one long-lived walker in every order a consumer can
// produce — ascending, each index twice, descending, shuffled, two
// records interleaved — and holds each answer, and the error for an
// index the record does not have, to the walk-from-the-root reference.
func TestFacadeWalkerMatchesReference(t *testing.T) {
	for _, cache := range []int{4096, 0} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, dt := range diffTrees(t, seed, cache) {
				t.Run(fmt.Sprintf("cache%d/seed%d/%s", cache, seed, dt.name), func(t *testing.T) {
					s := dt.store
					rids, facades := recordsOf(t, s, dt.tree.RootRID())
					var w FacadeWalker
					check := func(rid records.RID, idx int) {
						t.Helper()
						want, wantErr := refRefByFacadeIndex(s, rid, idx)
						if err := w.Load(s, rid); err != nil {
							t.Fatal(err)
						}
						var got ReadRef
						gotErr := w.Ref(idx, &got)
						if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
							t.Fatalf("record %s index %d: error %v, reference %v", rid, idx, gotErr, wantErr)
						}
						if wantErr == nil && !sameReadNode(got, want, idx) {
							t.Fatalf("record %s index %d: resolved to a different node than the reference", rid, idx)
						}
						one, oneErr := s.RefByFacadeIndex(rid, idx)
						if (wantErr == nil) != (oneErr == nil) || (wantErr == nil && !sameReadNode(one, want, idx)) {
							t.Fatalf("record %s index %d: RefByFacadeIndex disagrees with the reference (%v)", rid, idx, oneErr)
						}
					}
					rng := rand.New(rand.NewSource(seed))
					for r, rid := range rids {
						n := facades[r]
						for i := 0; i < n; i++ { // ascending
							check(rid, i)
						}
						for i := 0; i < n; i++ { // repeated
							check(rid, i)
							check(rid, i)
						}
						for i := n - 1; i >= 0; i-- { // descending
							check(rid, i)
						}
						for _, i := range rng.Perm(n) {
							check(rid, i)
						}
						// Out of range on both sides, then in range again: the
						// exhausted walker must recover.
						check(rid, n)
						check(rid, n+7)
						check(rid, -1)
						check(rid, n-1)
					}
					// Two records interleaved, each side ascending.
					for r := 0; r+1 < len(rids); r += 2 {
						for i := 0; i < max(facades[r], facades[r+1]); i++ {
							if i < facades[r] {
								check(rids[r], i)
							}
							if i < facades[r+1] {
								check(rids[r+1], i)
							}
						}
					}
				})
			}
		}
	}
}

// TestAppendTextMatchesReference walks every tree twice in step — over
// the decoded records (Children) and over the record images
// (ReadChildren) — and holds the text AppendReadText reads out of the
// images, through one reused buffer, to the text the reference gathers
// from the decoded nodes, node by node.
func TestAppendTextMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, dt := range diffTrees(t, seed, 4096) {
			t.Run(fmt.Sprintf("seed%d/%s", seed, dt.name), func(t *testing.T) {
				s := dt.store
				var (
					buf   []byte
					nodes int
				)
				var visit func(ref NodeRef, rr *ReadRef)
				visit = func(ref NodeRef, rr *ReadRef) {
					nodes++
					if rr.IsLiteral() != ref.IsLiteral() || rr.Label() != ref.Label() {
						t.Fatalf("node %d: the image and the decoded record name different nodes", nodes)
					}
					want, err := refTextContent(s, ref)
					if err != nil {
						t.Fatal(err)
					}
					if buf, err = s.AppendReadText(rr, buf[:0]); err != nil {
						t.Fatal(err)
					}
					if string(buf) != want {
						t.Fatalf("AppendReadText = %q, reference %q", buf, want)
					}
					kids, err := s.Children(ref)
					if err != nil {
						t.Fatal(err)
					}
					read, err := s.ReadChildren(rr, nil)
					if err != nil || len(read) != len(kids) {
						t.Fatalf("ReadChildren: %d children (%v), the decoded record %d", len(read), err, len(kids))
					}
					for i, k := range kids {
						visit(k, &read[i])
					}
				}
				root, err := s.ReadRoot(dt.tree.RootRID())
				if err != nil {
					t.Fatal(err)
				}
				visit(mustRoot(t, dt.tree), &root)
				if nodes < 50 {
					t.Fatalf("only %d nodes visited", nodes)
				}
			})
		}
	}
}

// TestResolveAllocs pins the resolvers' allocation discipline on a warm
// record: a walker kept by its owner never allocates, the one-shot
// RefByFacadeIndex pays for its own walker and nothing else.
func TestResolveAllocs(t *testing.T) {
	dt := diffTrees(t, 1, 4096)[1] // bulk/other: full records
	s := dt.store
	rids, facades := recordsOf(t, s, dt.tree.RootRID())
	rid, n := rids[0], facades[0]
	var (
		w   FacadeWalker
		ref ReadRef
	)
	if avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < n; i++ {
			if err := w.Load(s, rid); err != nil {
				t.Fatal(err)
			}
			if err := w.Ref(i, &ref); err != nil {
				t.Fatal(err)
			}
		}
	}); avg != 0 {
		t.Errorf("walker: %.1f allocs per record run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, func() {
		if _, err := s.RefByFacadeIndex(rid, n-1); err != nil {
			t.Fatal(err)
		}
	}); avg > 1 {
		t.Errorf("RefByFacadeIndex: %.1f allocs/op, want at most 1", avg)
	}
}

// The node-edit write path as it stood before records were spliced: every
// insert and delete re-measures and re-encodes the whole record. Kept
// verbatim — entry points included, since the splice sits in placeAt and
// removePhysical — as the reference TestSpliceMatchesFullEncode runs
// beside the production path.

// refLocate is Tree.Locate as it stood before it stopped at the child it
// wants: every step materialises the whole child list of the node it
// passes through, loading the record behind every proxy among them.
func refLocate(t *Tree, path Path) (NodeRef, error) {
	ref, err := t.Root()
	if err != nil {
		return NodeRef{}, err
	}
	var kids []NodeRef
	for depth, idx := range path {
		kids, err = t.store.Children(ref)
		if err != nil {
			return NodeRef{}, err
		}
		if idx < 0 || idx >= len(kids) {
			return NodeRef{}, fmt.Errorf("%w: %s (index %d of %d at depth %d)",
				ErrBadPath, path, idx, len(kids), depth)
		}
		ref = kids[idx]
	}
	return ref, nil
}

// TestLocateMatchesReference resolves every path of a corpus play —
// bulk-loaded and grown node by node, under both split-matrix extremes,
// so proxies and scaffold aggregates lie on the way — with the early-exit
// Locate and with the reference: same node, and for a path that does not
// resolve (an index one past the last child, a negative one, a step below
// a text node) the same error, "index i of n" included.
func TestLocateMatchesReference(t *testing.T) {
	model := playRef(corpus.GeneratePlay(corpus.SmallSpec(1), 0))
	var paths []Path
	modelPaths(model, nil, false, &paths)
	paths = append(paths, Path{})
	for _, m := range []struct {
		name   string
		matrix func() *SplitMatrix
	}{{"other", AllOther}, {"standalone", AllStandalone}} {
		for _, bulk := range []bool{true, false} {
			s := newStore(t, 2048, Config{Matrix: m.matrix(), CacheRecords: 256})
			var tr *Tree
			if bulk {
				tr = loadBulk(t, s, model, BulkOptions{})
			} else {
				tr = loadIncremental(t, s, model)
			}
			if rids, _ := recordsOf(t, s, tr.RootRID()); len(rids) < 2 {
				t.Fatalf("%s bulk=%v: the play lies in %d record(s); no proxy on any path", m.name, bulk, len(rids))
			}
			for _, p := range paths {
				got, err := tr.Locate(p)
				want, werr := refLocate(tr, p)
				if err != nil || werr != nil || !sameNode(got, want, true) {
					t.Fatalf("%s bulk=%v: Locate(%s) = %v, %v; reference %v, %v", m.name, bulk, p, got, err, want, werr)
				}
				n := len(modelAt(model, p).children)
				for _, bad := range []Path{append(p.Clone(), n), append(p.Clone(), -1), append(p.Clone(), n+3, 0)} {
					_, err := tr.Locate(bad)
					_, werr := refLocate(tr, bad)
					if !errors.Is(err, ErrBadPath) || werr == nil || err.Error() != werr.Error() {
						t.Fatalf("%s bulk=%v: Locate(%s) error %q, reference %q", m.name, bulk, bad, err, werr)
					}
				}
			}
		}
	}
}

// refInsertChild is Tree.InsertChild over refPlaceAt.
func refInsertChild(t *Tree, parentPath Path, idx int, n *noderep.Node) error {
	s := t.store
	if err := s.checkInsertable(n); err != nil {
		return err
	}
	parent, err := refLocate(t, parentPath)
	if err != nil {
		return err
	}
	if parent.node.Kind != noderep.KindAggregate {
		return fmt.Errorf("%w: cannot insert under %s at %s", ErrNotAggregate, parent.node.Kind, parentPath)
	}
	entries, err := s.childEntries(parent)
	if err != nil {
		return err
	}
	if idx == -1 {
		idx = len(entries)
	}
	if idx < 0 || idx > len(entries) {
		return fmt.Errorf("%w: insert index %d of %d at %s", ErrBadPath, idx, len(entries), parentPath)
	}
	ctx := newOpCtx(t)
	cands, err := s.insertionCandidates(parent, entries, idx)
	if err != nil {
		return err
	}
	policy := s.cfg.Matrix.Get(parent.node.Label, n.Label)
	switch policy {
	case PolicyStandalone:
		cand, err := s.chooseCandidate(cands, policy, parent.rid)
		if err != nil {
			return err
		}
		near, err := s.rm.PageOf(cand.rid)
		if err != nil {
			return err
		}
		childRID, err := s.storeTreeRecord(n, cand.rid, near, ctx)
		if err != nil {
			return err
		}
		if err := refPlaceAt(s, cand, noderep.NewProxy(childRID), ctx); err != nil {
			return err
		}
	default:
		cand, err := s.chooseCandidate(cands, policy, parent.rid)
		if err != nil {
			return err
		}
		if err := refPlaceAt(s, cand, n, ctx); err != nil {
			return err
		}
	}
	return ctx.apply()
}

// refPlaceAt inserts node at the physical position cand and runs the
// growth procedure on the affected record.
func refPlaceAt(s *Store, cand physPos, node *noderep.Node, ctx *opCtx) error {
	if cand.parent == nil || cand.rec == nil {
		return fmt.Errorf("core: internal error: insertion slot without parent aggregate")
	}
	cand.parent.InsertChild(cand.idx, node)
	return s.afterPlacement(cand.rid, cand.rec, []*noderep.Node{node}, ctx)
}

// refDelete is Tree.Delete over refRemovePhysical.
func refDelete(t *Tree, path Path) error {
	if len(path) == 0 {
		return ErrIsRoot
	}
	s := t.store
	parentRef, err := refLocate(t, path[:len(path)-1])
	if err != nil {
		return err
	}
	entries, err := s.childEntries(parentRef)
	if err != nil {
		return err
	}
	idx := path[len(path)-1]
	if idx < 0 || idx >= len(entries) {
		return fmt.Errorf("%w: %s (index %d of %d)", ErrBadPath, path, idx, len(entries))
	}
	e := entries[idx]
	ctx := newOpCtx(t)

	victim := e.ref.node
	if e.ref.rid != e.slot.rid {
		if err := s.deleteRecordTree(e.ref.rid); err != nil {
			return err
		}
		ctx.drop(e.ref.rid)
	} else {
		var firstErr error
		victim.Walk(func(n *noderep.Node) bool {
			if n.Kind == noderep.KindProxy {
				if err := s.deleteRecordTree(n.Target); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			return true
		})
		if firstErr != nil {
			return firstErr
		}
	}

	if err := refRemovePhysical(s, e.slot, ctx); err != nil {
		return err
	}
	if err := ctx.apply(); err != nil {
		return err
	}
	if s.cfg.MergeOnDelete {
		return t.tryMerge(e.slot.rid)
	}
	return nil
}

// refRemovePhysical deletes the child at the given slot and rewrites (or
// cleans up) the containing record.
func refRemovePhysical(s *Store, slot physPos, ctx *opCtx) error {
	rec := slot.rec
	slot.parent.RemoveChild(slot.idx)

	if len(rec.Root.Children) == 0 && rec.Root.Scaffold && !rec.ParentRID.IsNil() {
		parentRID := rec.ParentRID
		if err := s.deleteRecord(slot.rid); err != nil {
			return err
		}
		ctx.drop(slot.rid)
		parentRec, err := s.loadRecord(parentRID)
		if err != nil {
			return err
		}
		pp, pi, err := findProxySlot(parentRec.Root, slot.rid)
		if err != nil {
			return err
		}
		return refRemovePhysical(s, physPos{rid: parentRID, rec: parentRec, parent: pp, idx: pi}, ctx)
	}
	return s.writeRecord(slot.rid, rec)
}

// refSpliceRecord is spliceRecord as it stood before the splice moved
// into the pinned frame: the stored image read out with ReadInto (a
// resolve and a pin of its own), spliced, and handed to
// records.Manager.Splice, which resolves the RID and pins the page
// again. TestSpliceInFrameMatchesReadIntoSplice runs it beside the
// production path (Store.spliceHook).
func refSpliceRecord(s *Store, pos physPos, node *noderep.Node) (bool, error) {
	path, ok := physPath(nil, pos)
	if !ok {
		return false, nil
	}
	img, err := s.rm.ReadInto(pos.rid, make([]byte, 0, s.maxRecordSize()))
	if err != nil {
		return false, err
	}
	var sp noderep.Splice
	if node != nil {
		img, ok = sp.Insert(img, path, node, s.maxRecordSize())
	} else {
		img, ok = sp.Remove(img, path)
	}
	if !ok {
		return false, nil
	}
	if ok, err := s.rm.Splice(pos.rid, img, sp.From, sp.Fields); !ok || err != nil {
		return false, err
	}
	s.stats.recordsSpliced.Add(1)
	s.wrote(pos.rid, pos.rec, records.NilRID)
	return true, nil
}

// spliceCell is one setting of the splice differential.
type spliceCell struct {
	name   string
	page   int
	cfg    Config
	ops    int
	delPct int
}

func spliceCells() []spliceCell {
	var cells []spliceCell
	for _, page := range []int{2048, 4096, 8192, 16384, 32768} {
		for _, m := range []struct {
			name   string
			matrix func() *SplitMatrix
		}{
			{"other", AllOther},
			{"cluster", func() *SplitMatrix { return NewSplitMatrix(PolicyCluster) }},
			{"standalone", AllStandalone},
			{"mixed", mixedMatrix},
		} {
			cells = append(cells, spliceCell{
				name: fmt.Sprintf("%s-%d", m.name, page), page: page,
				cfg: Config{Matrix: m.matrix(), CacheRecords: 64}, ops: 500, delPct: 12,
			})
		}
	}
	return append(cells,
		spliceCell{"other-512", 512, Config{CacheRecords: 64}, 500, 12},
		spliceCell{"no-cache-2048", 2048, Config{}, 400, 12},
		spliceCell{"merge-1024", 1024, Config{CacheRecords: 64, MergeOnDelete: true}, 1200, 25},
		spliceCell{"left-target-2048", 2048, Config{CacheRecords: 64, SplitTarget: 0.2}, 400, 12},
	)
}

// storedRecord is one record as its page holds it.
type storedRecord struct {
	body  []byte
	rec   *noderep.Record
	fresh bool // decoded by this call, not carried over in the memo
}

// storedRecords reads every record of a tree off its pages, root first:
// the stored bytes, not the parsed-record cache. memo carries the result
// of the previous call, so only images that changed are decoded again.
func storedRecords(t *testing.T, s *Store, root records.RID, memo map[records.RID]storedRecord) (rids []records.RID, out []storedRecord) {
	t.Helper()
	var scratch []byte
	var visit func(rid records.RID)
	visit = func(rid records.RID) {
		body, err := s.rm.ReadInto(rid, scratch)
		if err != nil {
			t.Fatalf("record %s: %v", rid, err)
		}
		scratch = body
		sr, ok := memo[rid]
		sr.fresh = !ok || !bytes.Equal(sr.body, body)
		if sr.fresh {
			rec, err := noderep.Decode(body)
			if err != nil {
				t.Fatalf("record %s: %v", rid, err)
			}
			sr.body, sr.rec = bytes.Clone(body), rec
			memo[rid] = sr
		}
		rids, out = append(rids, rid), append(out, sr)
		sr.rec.Root.Walk(func(n *noderep.Node) bool {
			if n.Kind == noderep.KindProxy {
				visit(n.Target)
			}
			return true
		})
	}
	visit(root)
	return rids, out
}

// TestSpliceMatchesFullEncode runs one seeded sequence of node inserts
// and deletes on twin stores — the production path, which splices, and
// the reference path above, which re-encodes — under every split-matrix
// setting and page sizes 2K–32K. After every operation the two stores
// hold the same records under the same RIDs (so the same pages), each
// stored image decodes to the reference's tree, has the reference's
// length and the length its tree encodes to, and the counters that the
// split rule drives agree. The update brackets run in checking mode (it
// is a test binary): a splice that touched a byte outside the windows it
// declared fails its operation here.
func TestSpliceMatchesFullEncode(t *testing.T) {
	labels := []dict.LabelID{lPlay, lAct, lScene, lSpeech, lSpeaker, lLine}
	for _, cell := range spliceCells() {
		t.Run(cell.name, func(t *testing.T) {
			seeds := int64(2)
			if cell.page >= 16384 {
				seeds = 1 // the big pages cost the most and differ the least
			}
			for seed := int64(1); seed <= seeds; seed++ {
				rng := rand.New(rand.NewSource(seed*1009 + int64(cell.page)))
				prod, ref := newStore(t, cell.page, cell.cfg), newStore(t, cell.page, cell.cfg)
				pt, err := prod.CreateTree(lPlay)
				if err != nil {
					t.Fatal(err)
				}
				rt, err := ref.CreateTree(lPlay)
				if err != nil {
					t.Fatal(err)
				}
				model := &refNode{label: lPlay}
				pmemo, rmemo := map[records.RID]storedRecord{}, map[records.RID]storedRecord{}
				for op := 0; op < cell.ops; op++ {
					var paths []Path
					if del := rng.Intn(100) < cell.delPct; del && len(model.children) > 0 {
						modelPaths(model, Path{}, false, &paths)
						p := paths[rng.Intn(len(paths))]
						if err := pt.Delete(p); err != nil {
							t.Fatalf("seed %d op %d: delete %s: %v", seed, op, p, err)
						}
						if err := refDelete(rt, p); err != nil {
							t.Fatalf("seed %d op %d: reference delete %s: %v", seed, op, p, err)
						}
						parent := modelAt(model, p[:len(p)-1])
						i := p[len(p)-1]
						parent.children = append(parent.children[:i], parent.children[i+1:]...)
					} else {
						modelPaths(model, Path{}, true, &paths)
						p := paths[rng.Intn(len(paths))]
						parent := modelAt(model, p)
						idx := rng.Intn(len(parent.children) + 1)
						var rn *refNode
						if rng.Intn(3) == 0 {
							rn = &refNode{label: labels[rng.Intn(len(labels))]}
						} else {
							// Texts scale with the page, so every size splits.
							rn = &refNode{isText: true, label: dict.Text,
								text: fmt.Sprintf("op %d %s", op, strings.Repeat("ha", rng.Intn(cell.page/40)))}
						}
						if err := pt.InsertChild(p, idx, modelNode(rn)); err != nil {
							t.Fatalf("seed %d op %d: insert at %s[%d]: %v", seed, op, p, idx, err)
						}
						if err := refInsertChild(rt, p, idx, modelNode(rn)); err != nil {
							t.Fatalf("seed %d op %d: reference insert at %s[%d]: %v", seed, op, p, idx, err)
						}
						parent.children = append(parent.children, nil)
						copy(parent.children[idx+1:], parent.children[idx:])
						parent.children[idx] = rn
					}

					if pt.RootRID() != rt.RootRID() {
						t.Fatalf("seed %d op %d: root record %s, reference %s", seed, op, pt.RootRID(), rt.RootRID())
					}
					prids, precs := storedRecords(t, prod, pt.RootRID(), pmemo)
					rrids, rrecs := storedRecords(t, ref, rt.RootRID(), rmemo)
					if !slices.Equal(prids, rrids) {
						t.Fatalf("seed %d op %d: records %v, reference %v", seed, op, prids, rrids)
					}
					for i, rid := range prids {
						p, r := precs[i], rrecs[i]
						if !p.fresh && !r.fresh {
							continue // both images as they were when last compared
						}
						if !noderep.Equal(p.rec.Root, r.rec.Root) || p.rec.ParentRID != r.rec.ParentRID {
							t.Fatalf("seed %d op %d: record %s decodes differently from the reference", seed, op, rid)
						}
						if len(p.body) != len(r.body) || len(p.body) != noderep.EncodedSize(r.rec) {
							t.Fatalf("seed %d op %d: record %s stored in %d bytes, reference %d, encoded size %d",
								seed, op, rid, len(p.body), len(r.body), noderep.EncodedSize(r.rec))
						}
					}
					if op%20 == 0 || op == cell.ops-1 {
						if err := pt.CheckInvariants(); err != nil {
							t.Fatalf("seed %d op %d: %v", seed, op, err)
						}
					}
				}
				if got := materialize(t, pt); !refEqual(got, model) {
					t.Fatalf("seed %d: tree differs from the model", seed)
				}
				ps, rs := prod.Stats(), ref.Stats()
				if ps.Splits != rs.Splits || ps.RecordsCreated != rs.RecordsCreated || ps.RecordsDeleted != rs.RecordsDeleted ||
					ps.ParentPatches != rs.ParentPatches || ps.RecordsSpliced+ps.RecordsRewritten != rs.RecordsRewritten {
					t.Fatalf("seed %d: counters %+v, reference %+v", seed, ps, rs)
				}
				t.Logf("seed %d: %d spliced, %d rewritten, %d splits, %d records", seed, ps.RecordsSpliced, ps.RecordsRewritten, ps.Splits, ps.RecordsCreated-ps.RecordsDeleted)
				if rs.RecordsSpliced != 0 || ps.RecordsSpliced == 0 {
					t.Fatalf("seed %d: %d records spliced, reference %d", seed, ps.RecordsSpliced, rs.RecordsSpliced)
				}
				if cell.cfg.Matrix == nil || cell.cfg.Matrix.Default() != PolicyStandalone {
					if ps.Splits == 0 || ps.RecordsRewritten == 0 {
						t.Fatalf("seed %d: no split or no fallback in the mix: %+v", seed, ps)
					}
				}
			}
		})
	}
}

// modelPaths lists the paths of the model's aggregates (insert points),
// or of every node but the root (delete victims).
func modelPaths(r *refNode, p Path, aggregates bool, out *[]Path) {
	if aggregates && r.isText {
		return
	}
	if aggregates || len(p) > 0 {
		*out = append(*out, p.Clone())
	}
	for i, c := range r.children {
		modelPaths(c, append(p, i), aggregates, out)
	}
}

func modelAt(r *refNode, p Path) *refNode {
	for _, i := range p {
		r = r.children[i]
	}
	return r
}

func modelNode(r *refNode) *noderep.Node {
	if r.isText {
		return noderep.NewTextLiteral(r.text)
	}
	return noderep.NewAggregate(r.label)
}
