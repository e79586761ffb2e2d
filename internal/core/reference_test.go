package core

import (
	"fmt"
	"math/rand"
	"testing"

	"natix/internal/dict"
	"natix/internal/noderep"
	"natix/internal/records"
)

// The implementations FacadeWalker and AppendText replaced, kept as the
// reference the differential tests below hold the new ones to.

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
						got, gotErr := w.Ref(idx)
						if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
							t.Fatalf("record %s index %d: error %v, reference %v", rid, idx, gotErr, wantErr)
						}
						if wantErr == nil && !sameNode(got, want, cache > 0) {
							t.Fatalf("record %s index %d: resolved to a different node than the reference", rid, idx)
						}
						one, oneErr := s.RefByFacadeIndex(rid, idx)
						if (wantErr == nil) != (oneErr == nil) || (wantErr == nil && !sameNode(one, want, cache > 0)) {
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

// TestAppendTextMatchesReference reads the text of every node of every
// tree through one reused buffer and stack and holds it to the old
// TextContent.
func TestAppendTextMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, dt := range diffTrees(t, seed, 4096) {
			t.Run(fmt.Sprintf("seed%d/%s", seed, dt.name), func(t *testing.T) {
				s := dt.store
				var (
					buf   []byte
					stack []NodeRef
					nodes int
				)
				var visit func(ref NodeRef)
				visit = func(ref NodeRef) {
					nodes++
					want, err := refTextContent(s, ref)
					if err != nil {
						t.Fatal(err)
					}
					if buf, err = s.AppendText(ref, buf[:0], &stack); err != nil {
						t.Fatal(err)
					}
					if string(buf) != want {
						t.Fatalf("AppendText = %q, reference %q", buf, want)
					}
					if len(stack) != 0 {
						t.Fatalf("AppendText left %d refs stacked", len(stack))
					}
					if got, err := s.TextContent(ref); err != nil || got != want {
						t.Fatalf("TextContent = %q, %v; reference %q", got, err, want)
					}
					kids, err := s.Children(ref)
					if err != nil {
						t.Fatal(err)
					}
					for _, k := range kids {
						visit(k)
					}
				}
				visit(mustRoot(t, dt.tree))
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
	var w FacadeWalker
	if avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < n; i++ {
			if err := w.Load(s, rid); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Ref(i); err != nil {
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
