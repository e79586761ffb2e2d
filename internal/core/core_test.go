package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"natix/internal/buffer"
	"natix/internal/dict"
	"natix/internal/noderep"
	"natix/internal/pagedev"
	"natix/internal/records"
	"natix/internal/segment"
)

// Test labels.
const (
	lPlay    = dict.LabelID(3)
	lAct     = dict.LabelID(4)
	lScene   = dict.LabelID(5)
	lSpeech  = dict.LabelID(6)
	lSpeaker = dict.LabelID(7)
	lLine    = dict.LabelID(8)
)

func newStore(t testing.TB, pageSize int, cfg Config) *Store {
	t.Helper()
	dev, err := pagedev.NewMem(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.New(dev, 512)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := segment.Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	return New(records.New(seg), cfg)
}

// refNode is the in-memory reference model for equivalence testing.
type refNode struct {
	label    dict.LabelID
	text     string
	isText   bool
	children []*refNode
}

func (r *refNode) clone() *refNode {
	c := &refNode{label: r.label, text: r.text, isText: r.isText}
	for _, ch := range r.children {
		c.children = append(c.children, ch.clone())
	}
	return c
}

// toRef converts a materialized facade tree to the reference shape.
func toRef(n *noderep.Node) *refNode {
	if n.Kind == noderep.KindLiteral {
		return &refNode{isText: true, text: string(n.Payload), label: n.Label}
	}
	r := &refNode{label: n.Label}
	for _, c := range n.Children {
		r.children = append(r.children, toRef(c))
	}
	return r
}

func refEqual(a, b *refNode) bool {
	if a.isText != b.isText || a.label != b.label || a.text != b.text ||
		len(a.children) != len(b.children) {
		return false
	}
	for i := range a.children {
		if !refEqual(a.children[i], b.children[i]) {
			return false
		}
	}
	return true
}

func (r *refNode) String() string {
	var b strings.Builder
	r.dump(&b, 0)
	return b.String()
}

func (r *refNode) dump(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	if r.isText {
		fmt.Fprintf(b, "%q\n", r.text)
		return
	}
	fmt.Fprintf(b, "<%d>\n", r.label)
	for _, c := range r.children {
		c.dump(b, depth+1)
	}
}

// materialize reads back the whole logical tree from the store.
func materialize(t *testing.T, tr *Tree) *refNode {
	t.Helper()
	root, err := tr.Root()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := buildSubtree(tr.Store(), root)
	if err != nil {
		t.Fatal(err)
	}
	return toRef(sub)
}

// buildSubtree materializes the logical subtree under ref as a pure
// facade tree (no proxies, no scaffolds) from the decoded records: the
// reconstruction the paper describes in §2.3.3.
func buildSubtree(s *Store, ref NodeRef) (*noderep.Node, error) {
	n := ref.node
	out := &noderep.Node{
		Kind: n.Kind, Label: n.Label, LitType: n.LitType,
	}
	if n.Kind == noderep.KindLiteral {
		out.Payload = append([]byte(nil), n.Payload...)
		return out, nil
	}
	kids, err := s.Children(ref)
	if err != nil {
		return nil, err
	}
	for _, k := range kids {
		sub, err := buildSubtree(s, k)
		if err != nil {
			return nil, err
		}
		out.AppendChild(sub)
	}
	return out, nil
}

func TestCreateAndSmallInserts(t *testing.T) {
	s := newStore(t, 2048, Config{})
	tr, err := s.CreateTree(lPlay)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.AppendChild(Path{}, noderep.NewAggregate(lAct)); err != nil {
		t.Fatal(err)
	}
	if err := tr.AppendChild(Path{0}, noderep.NewAggregate(lScene)); err != nil {
		t.Fatal(err)
	}
	if err := tr.AppendChild(Path{0, 0}, noderep.NewTextLiteral("hello scene")); err != nil {
		t.Fatal(err)
	}
	if err := tr.InsertChild(Path{}, 0, noderep.NewAggregate(lSpeech)); err != nil {
		t.Fatal(err)
	}
	got := materialize(t, tr)
	want := &refNode{label: lPlay, children: []*refNode{
		{label: lSpeech},
		{label: lAct, children: []*refNode{
			{label: lScene, children: []*refNode{
				{isText: true, label: dict.Text, text: "hello scene"},
			}},
		}},
	}}
	if !refEqual(got, want) {
		t.Fatalf("tree mismatch:\ngot:\n%swant:\n%s", got, want)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Everything fits one record: no splits.
	if n, _ := tr.RecordCount(); n != 1 {
		t.Fatalf("RecordCount = %d, want 1", n)
	}
}

func TestInsertErrors(t *testing.T) {
	s := newStore(t, 2048, Config{})
	tr, _ := s.CreateTree(lPlay)
	if err := tr.AppendChild(Path{}, noderep.NewTextLiteral("txt")); err != nil {
		t.Fatal(err)
	}
	// Insert under a literal fails.
	if err := tr.AppendChild(Path{0}, noderep.NewAggregate(lAct)); err == nil {
		t.Fatal("insert under literal succeeded")
	}
	// Bad path fails.
	if err := tr.AppendChild(Path{5}, noderep.NewAggregate(lAct)); err == nil {
		t.Fatal("insert at bad path succeeded")
	}
	// Bad index fails.
	if err := tr.InsertChild(Path{}, 7, noderep.NewAggregate(lAct)); err == nil {
		t.Fatal("insert at bad index succeeded")
	}
	// Oversized literal fails with guidance.
	big := noderep.NewTextLiteral(strings.Repeat("x", 4000))
	if err := tr.AppendChild(Path{}, big); err == nil {
		t.Fatal("oversized literal accepted")
	}
}

// TestGrowthForcesSplits builds a document larger than a page and checks
// structure and invariants.
func TestGrowthForcesSplits(t *testing.T) {
	for _, pageSize := range []int{512, 1024, 2048} {
		t.Run(fmt.Sprintf("page%d", pageSize), func(t *testing.T) {
			s := newStore(t, pageSize, Config{})
			tr, err := s.CreateTree(lPlay)
			if err != nil {
				t.Fatal(err)
			}
			ref := &refNode{label: lPlay}
			// Pre-order build: acts > scenes > speeches with text.
			for a := 0; a < 3; a++ {
				if err := tr.AppendChild(Path{}, noderep.NewAggregate(lAct)); err != nil {
					t.Fatal(err)
				}
				refAct := &refNode{label: lAct}
				ref.children = append(ref.children, refAct)
				for sc := 0; sc < 4; sc++ {
					if err := tr.AppendChild(Path{a}, noderep.NewAggregate(lScene)); err != nil {
						t.Fatal(err)
					}
					refScene := &refNode{label: lScene}
					refAct.children = append(refAct.children, refScene)
					for sp := 0; sp < 5; sp++ {
						text := fmt.Sprintf("act %d scene %d line %d: to be or not to be", a, sc, sp)
						if err := tr.AppendChild(Path{a, sc}, noderep.NewTextLiteral(text)); err != nil {
							t.Fatal(err)
						}
						refScene.children = append(refScene.children,
							&refNode{isText: true, label: dict.Text, text: text})
					}
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			got := materialize(t, tr)
			if !refEqual(got, ref) {
				t.Fatalf("tree mismatch after splits:\ngot:\n%swant:\n%s", got, ref)
			}
			n, err := tr.RecordCount()
			if err != nil {
				t.Fatal(err)
			}
			if n < 2 {
				t.Fatalf("expected splits on %d-byte pages, got %d records", pageSize, n)
			}
			if s.Stats().Splits == 0 {
				t.Fatal("no splits counted")
			}
		})
	}
}

// TestOneToOneConfiguration: the all-standalone matrix stores every
// facade node in its own record (§4.2's "1:1" emulation of POET et al).
func TestOneToOneConfiguration(t *testing.T) {
	s := newStore(t, 2048, Config{Matrix: AllStandalone()})
	tr, _ := s.CreateTree(lPlay)
	nodes := 1
	for a := 0; a < 2; a++ {
		if err := tr.AppendChild(Path{}, noderep.NewAggregate(lAct)); err != nil {
			t.Fatal(err)
		}
		nodes++
		for sc := 0; sc < 3; sc++ {
			if err := tr.AppendChild(Path{a}, noderep.NewTextLiteral("some text here")); err != nil {
				t.Fatal(err)
			}
			nodes++
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	n, err := tr.RecordCount()
	if err != nil {
		t.Fatal(err)
	}
	if n != nodes {
		t.Fatalf("RecordCount = %d, want %d (one per node)", n, nodes)
	}
}

// TestClusterPolicyKeepsChildrenWithParent: ∞ entries keep SPEAKER nodes
// in their SPEECH's record across splits.
func TestClusterPolicyKeepsChildrenWithParent(t *testing.T) {
	m := AllOther()
	m.Set(lSpeech, lSpeaker, PolicyCluster)
	s := newStore(t, 512, Config{Matrix: m})
	tr, _ := s.CreateTree(lPlay)
	// Many speeches, each with a speaker and lines; small pages force
	// splits.
	for i := 0; i < 20; i++ {
		if err := tr.AppendChild(Path{}, noderep.NewAggregate(lSpeech)); err != nil {
			t.Fatal(err)
		}
		sp := noderep.NewAggregate(lSpeaker)
		sp.AppendChild(noderep.NewTextLiteral(fmt.Sprintf("SPEAKER-%02d", i)))
		if err := tr.AppendChild(Path{i}, sp); err != nil {
			t.Fatal(err)
		}
		for l := 0; l < 3; l++ {
			ln := noderep.NewAggregate(lLine)
			ln.AppendChild(noderep.NewTextLiteral(fmt.Sprintf("line %d of speech %d, padding padding", l, i)))
			if err := tr.AppendChild(Path{i}, ln); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every SPEECH facade node must share a record with its SPEAKER child.
	root, _ := tr.Root()
	speeches, err := s.Children(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(speeches) != 20 {
		t.Fatalf("%d speeches", len(speeches))
	}
	for i, sp := range speeches {
		kids, err := s.Children(sp)
		if err != nil {
			t.Fatal(err)
		}
		if len(kids) == 0 || kids[0].Label() != lSpeaker {
			t.Fatalf("speech %d: first child not a speaker", i)
		}
		if kids[0].RID() != sp.RID() {
			t.Fatalf("speech %d: speaker in record %s, speech in %s (∞ violated)",
				i, kids[0].RID(), sp.RID())
		}
	}
}

// TestRootSplit: growing the root record must split it into a new root
// record of separator + proxies and keep the logical tree intact. (The
// new root may legally reuse the freed RID, so assert on structure, not
// identity.)
func TestRootSplit(t *testing.T) {
	s := newStore(t, 512, Config{})
	tr, _ := s.CreateTree(lPlay)
	for i := 0; i < 50; i++ {
		if err := tr.AppendChild(Path{}, noderep.NewTextLiteral(fmt.Sprintf("padding text number %03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Splits == 0 {
		t.Fatal("root record never split despite overflow")
	}
	if n, _ := tr.RecordCount(); n < 3 {
		t.Fatalf("RecordCount = %d after root splits", n)
	}
	// The root record must now contain proxies to partition records.
	rec, err := refLoadRecord(s, tr.RootRID())
	if err != nil {
		t.Fatal(err)
	}
	proxies := 0
	rec.Root.Walk(func(n *noderep.Node) bool {
		if n.Kind == noderep.KindProxy {
			proxies++
		}
		return true
	})
	if proxies == 0 {
		t.Fatal("root record has no proxies after split")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := materialize(t, tr)
	if len(got.children) != 50 {
		t.Fatalf("%d children after root splits, want 50", len(got.children))
	}
	for i, c := range got.children {
		if c.text != fmt.Sprintf("padding text number %03d", i) {
			t.Fatalf("child %d out of order: %q", i, c.text)
		}
	}
}

// TestDeepDocument exercises multi-level splits with a deep skinny tree.
func TestDeepDocument(t *testing.T) {
	s := newStore(t, 512, Config{})
	tr, _ := s.CreateTree(lPlay)
	path := Path{}
	for d := 0; d < 30; d++ {
		if err := tr.AppendChild(path, noderep.NewAggregate(lAct)); err != nil {
			t.Fatalf("depth %d: %v", d, err)
		}
		if err := tr.AppendChild(path, noderep.NewTextLiteral(fmt.Sprintf("depth %d text with some padding to fill pages", d))); err != nil {
			t.Fatalf("depth %d: %v", d, err)
		}
		path = append(path, 0)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Verify the spine.
	got := materialize(t, tr)
	cur := got
	for d := 0; d < 30; d++ {
		if len(cur.children) != 2 {
			t.Fatalf("depth %d: %d children", d, len(cur.children))
		}
		if !cur.children[1].isText {
			t.Fatalf("depth %d: second child not text", d)
		}
		cur = cur.children[0]
	}
}

// TestDeleteSubtrees removes embedded nodes, standalone subtrees and
// verifies record reclamation.
func TestDeleteSubtrees(t *testing.T) {
	s := newStore(t, 512, Config{})
	tr, _ := s.CreateTree(lPlay)
	ref := &refNode{label: lPlay}
	for a := 0; a < 4; a++ {
		if err := tr.AppendChild(Path{}, noderep.NewAggregate(lAct)); err != nil {
			t.Fatal(err)
		}
		refAct := &refNode{label: lAct}
		ref.children = append(ref.children, refAct)
		for i := 0; i < 6; i++ {
			text := fmt.Sprintf("act %d paragraph %d with enough text to force splitting", a, i)
			if err := tr.AppendChild(Path{a}, noderep.NewTextLiteral(text)); err != nil {
				t.Fatal(err)
			}
			refAct.children = append(refAct.children, &refNode{isText: true, label: dict.Text, text: text})
		}
	}
	recsBefore, _ := tr.RecordCount()

	// Delete act 1 entirely.
	if err := tr.Delete(Path{1}); err != nil {
		t.Fatal(err)
	}
	ref.children = append(ref.children[:1], ref.children[2:]...)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := materialize(t, tr); !refEqual(got, ref) {
		t.Fatalf("after subtree delete:\ngot:\n%swant:\n%s", got, ref)
	}
	// Delete individual texts from act 0.
	for i := 0; i < 3; i++ {
		if err := tr.Delete(Path{0, 0}); err != nil {
			t.Fatal(err)
		}
		ref.children[0].children = ref.children[0].children[1:]
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := materialize(t, tr); !refEqual(got, ref) {
		t.Fatalf("after leaf deletes:\ngot:\n%swant:\n%s", got, ref)
	}
	recsAfter, _ := tr.RecordCount()
	if recsAfter >= recsBefore {
		t.Fatalf("record count did not shrink: %d -> %d", recsBefore, recsAfter)
	}
	// Deleting the root is refused.
	if err := tr.Delete(Path{}); err == nil {
		t.Fatal("deleting root succeeded")
	}
}

func TestDeleteWithMerge(t *testing.T) {
	s := newStore(t, 512, Config{MergeOnDelete: true})
	tr, _ := s.CreateTree(lPlay)
	// Nine texts an act grow the tree to four records (eight did while
	// every embedded header was 4 bytes).
	for a := 0; a < 3; a++ {
		if err := tr.AppendChild(Path{}, noderep.NewAggregate(lAct)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 9; i++ {
			if err := tr.AppendChild(Path{a}, noderep.NewTextLiteral(fmt.Sprintf("act %d item %d padding padding", a, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	grown, _ := tr.RecordCount()
	// Shrink act 0 down to one child: merging should reclaim records.
	for i := 0; i < 8; i++ {
		if err := tr.Delete(Path{0, 0}); err != nil {
			t.Fatal(err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	shrunk, _ := tr.RecordCount()
	if shrunk >= grown {
		t.Fatalf("merge did not reduce records: %d -> %d", grown, shrunk)
	}
}

// TestModelEquivalence is the central property test: random insert and
// delete sequences through the storage manager must reproduce exactly
// the tree an in-memory reference model holds, for several page sizes,
// matrices and split targets, with invariants intact throughout.
func TestModelEquivalence(t *testing.T) {
	type scenario struct {
		name   string
		page   int
		cfg    Config
		ops    int
		delPct int
	}
	cluster := AllOther()
	cluster.Set(lScene, lSpeech, PolicyCluster)
	cluster.Set(lSpeech, lSpeaker, PolicyCluster)
	standaloneScenes := AllOther()
	standaloneScenes.Set(lAct, lScene, PolicyStandalone)
	scenarios := []scenario{
		{"native-512", 512, Config{}, 300, 10},
		{"native-2048", 2048, Config{}, 300, 10},
		{"one-to-one-1024", 1024, Config{Matrix: AllStandalone()}, 200, 10},
		{"cluster-512", 512, Config{Matrix: cluster}, 250, 10},
		{"standalone-scenes-512", 512, Config{Matrix: standaloneScenes}, 250, 10},
		{"left-target-512", 512, Config{SplitTarget: 0.2}, 250, 10},
		{"right-target-512", 512, Config{SplitTarget: 0.8}, 250, 10},
		{"merge-512", 512, Config{MergeOnDelete: true}, 250, 25},
		{"cache-off-1024", 1024, Config{CacheRecords: -1}, 200, 10},
		{"tight-tolerance-512", 512, Config{SplitTolerance: 16}, 250, 10},
	}
	labels := []dict.LabelID{lPlay, lAct, lScene, lSpeech, lSpeaker, lLine}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(sc.name)) * 7919))
			if sc.cfg.CacheRecords == 0 {
				sc.cfg.CacheRecords = 64
			} else if sc.cfg.CacheRecords < 0 {
				sc.cfg.CacheRecords = 0
			}
			s := newStore(t, sc.page, sc.cfg)
			tr, err := s.CreateTree(lPlay)
			if err != nil {
				t.Fatal(err)
			}
			ref := &refNode{label: lPlay}

			// aggPaths lists paths of aggregate nodes in the reference.
			var aggPaths func(r *refNode, p Path, out *[]Path)
			aggPaths = func(r *refNode, p Path, out *[]Path) {
				if r.isText {
					return
				}
				*out = append(*out, p.Clone())
				for i, c := range r.children {
					aggPaths(c, append(p, i), out)
				}
			}
			var anyPaths func(r *refNode, p Path, out *[]Path)
			anyPaths = func(r *refNode, p Path, out *[]Path) {
				if len(p) > 0 {
					*out = append(*out, p.Clone())
				}
				for i, c := range r.children {
					anyPaths(c, append(p, i), out)
				}
			}
			locate := func(p Path) *refNode {
				cur := ref
				for _, i := range p {
					cur = cur.children[i]
				}
				return cur
			}

			for op := 0; op < sc.ops; op++ {
				if rng.Intn(100) < sc.delPct {
					var cands []Path
					anyPaths(ref, Path{}, &cands)
					if len(cands) == 0 {
						continue
					}
					p := cands[rng.Intn(len(cands))]
					parent := locate(p[:len(p)-1])
					idx := p[len(p)-1]
					if err := tr.Delete(p); err != nil {
						t.Fatalf("op %d: delete %s: %v", op, p, err)
					}
					parent.children = append(parent.children[:idx], parent.children[idx+1:]...)
				} else {
					var cands []Path
					aggPaths(ref, Path{}, &cands)
					p := cands[rng.Intn(len(cands))]
					parent := locate(p)
					idx := rng.Intn(len(parent.children) + 1)
					var n *noderep.Node
					var rn *refNode
					if rng.Intn(3) == 0 {
						label := labels[rng.Intn(len(labels))]
						n = noderep.NewAggregate(label)
						rn = &refNode{label: label}
					} else {
						text := fmt.Sprintf("op %d text %s", op, strings.Repeat("ha", rng.Intn(40)))
						n = noderep.NewTextLiteral(text)
						rn = &refNode{isText: true, label: dict.Text, text: text}
					}
					if err := tr.InsertChild(p, idx, n); err != nil {
						t.Fatalf("op %d: insert at %s[%d]: %v", op, p, idx, err)
					}
					parent.children = append(parent.children, nil)
					copy(parent.children[idx+1:], parent.children[idx:])
					parent.children[idx] = rn
				}
				cachedImagesAreStored(t, s, tr.RootRID())
				if op%25 == 0 {
					if err := tr.CheckInvariants(); err != nil {
						t.Fatalf("op %d: invariants: %v", op, err)
					}
					if got := materialize(t, tr); !refEqual(got, ref) {
						t.Fatalf("op %d: divergence\ngot:\n%swant:\n%s", op, got, ref)
					}
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if got := materialize(t, tr); !refEqual(got, ref) {
				t.Fatalf("final divergence\ngot:\n%swant:\n%s", got, ref)
			}
		})
	}
}

// cachedImagesAreStored fails unless every record image the cache holds
// is the image stored for its record — no write left a stale one behind
// — and then loads the image of every record of the tree, so the next
// edit meets them cached.
func cachedImagesAreStored(t *testing.T, s *Store, root records.RID) {
	t.Helper()
	if s.cache == nil {
		return
	}
	for i := range s.cache.shards {
		sh := &s.cache.shards[i]
		sh.mu.Lock()
		for rid, it := range sh.entries {
			if it.img == nil {
				continue
			}
			stored, err := s.rm.Read(rid)
			if err != nil || string(stored) != it.img.Data() {
				sh.mu.Unlock()
				t.Fatalf("record %s: the cached image is not the stored one (%v)", rid, err)
			}
		}
		sh.mu.Unlock()
	}
	rids, _ := recordsOf(t, s, root)
	for _, rid := range rids {
		if _, err := s.loadImage(rid); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCursorTraversalOrder: the cursor must visit nodes in document
// order with correct paths.
func TestCursorTraversalOrder(t *testing.T) {
	s := newStore(t, 512, Config{})
	tr, _ := s.CreateTree(lPlay)
	var wantTexts []string
	for a := 0; a < 3; a++ {
		if err := tr.AppendChild(Path{}, noderep.NewAggregate(lAct)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			text := fmt.Sprintf("a%d-t%d some words to pad the record", a, i)
			if err := tr.AppendChild(Path{a}, noderep.NewTextLiteral(text)); err != nil {
				t.Fatal(err)
			}
			wantTexts = append(wantTexts, text)
		}
	}
	c, err := tr.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	var gotTexts []string
	var labels []dict.LabelID
	err = c.WalkPreOrder(func(c *Cursor) bool {
		labels = append(labels, c.Label())
		if c.IsLiteral() {
			ref := c.Ref()
			v, _ := ref.StringValue()
			gotTexts = append(gotTexts, v)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 1+3+15 {
		t.Fatalf("visited %d nodes, want 19", len(labels))
	}
	if labels[0] != lPlay || labels[1] != lAct {
		t.Fatalf("order wrong: %v", labels[:3])
	}
	for i, want := range wantTexts {
		if gotTexts[i] != want {
			t.Fatalf("text %d = %q, want %q", i, gotTexts[i], want)
		}
	}
	// Cursor ends back at the root.
	if c.Depth() != 0 {
		t.Fatalf("cursor depth after walk = %d", c.Depth())
	}
}

// TestTextContent reconstructs text across record boundaries.
func TestTextContent(t *testing.T) {
	s := newStore(t, 512, Config{})
	tr, _ := s.CreateTree(lSpeech)
	var want strings.Builder
	for i := 0; i < 30; i++ {
		text := fmt.Sprintf("fragment %02d of a long speech. ", i)
		if err := tr.AppendChild(Path{}, noderep.NewTextLiteral(text)); err != nil {
			t.Fatal(err)
		}
		want.WriteString(text)
	}
	root, err := s.ReadRoot(tr.RootRID())
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.AppendReadText(&root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want.String() {
		t.Fatalf("AppendReadText mismatch:\n%q\n%q", got, want.String())
	}
}

// TestDeleteTreeReclaimsEverything: DeleteTree leaves no records behind.
func TestDeleteTreeReclaimsEverything(t *testing.T) {
	s := newStore(t, 512, Config{})
	tr, _ := s.CreateTree(lPlay)
	for i := 0; i < 40; i++ {
		if err := tr.AppendChild(Path{}, noderep.NewTextLiteral(fmt.Sprintf("blob of text %02d to grow the tree", i))); err != nil {
			t.Fatal(err)
		}
	}
	created := s.Stats().RecordsCreated
	if err := tr.DeleteTree(); err != nil {
		t.Fatal(err)
	}
	// Creates = deletes once the tree is gone (the store had no other
	// trees). Note splits delete intermediate records too, so compare
	// totals rather than live counts.
	if s.Stats().RecordsDeleted != created {
		t.Fatalf("created %d records, deleted %d", created, s.Stats().RecordsDeleted)
	}
	if _, err := tr.Root(); err == nil {
		t.Fatal("root still readable after DeleteTree")
	}
}

func TestSplitMatrixAccessors(t *testing.T) {
	m := NewSplitMatrix(PolicyOther)
	if m.Get(lAct, lScene) != PolicyOther {
		t.Fatal("default not returned")
	}
	m.Set(lAct, lScene, PolicyCluster)
	if m.Get(lAct, lScene) != PolicyCluster {
		t.Fatal("set entry not returned")
	}
	if m.Get(lScene, lAct) != PolicyOther {
		t.Fatal("reverse pair affected")
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
	if AllStandalone().Default() != PolicyStandalone {
		t.Fatal("AllStandalone default wrong")
	}
	if PolicyCluster.String() != "∞" || PolicyStandalone.String() != "0" || PolicyOther.String() != "other" {
		t.Fatal("Policy.String wrong")
	}
}

func TestStatsCounters(t *testing.T) {
	s := newStore(t, 512, Config{CacheRecords: 16})
	tr, _ := s.CreateTree(lPlay)
	for i := 0; i < 30; i++ {
		if err := tr.AppendChild(Path{}, noderep.NewTextLiteral(fmt.Sprintf("text %02d with padding for splits", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ { // the second read hits the image cache
		if _, err := s.ReadRoot(tr.RootRID()); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Splits == 0 || st.RecordsCreated == 0 {
		t.Fatalf("stats not counting: %+v", st)
	}
	if st.CacheHits == 0 {
		t.Fatalf("cache never hit: %+v", st)
	}
	s.ResetStats()
	if s.Stats().Splits != 0 {
		t.Fatal("ResetStats did not clear")
	}
}
