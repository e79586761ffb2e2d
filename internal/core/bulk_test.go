package core

import (
	"math/rand"
	"strings"
	"testing"

	"natix/internal/dict"
	"natix/internal/noderep"
	"natix/internal/records"
)

// genRefTree builds a deterministic pseudo-random logical tree.
func genRefTree(rng *rand.Rand, depth, maxFanout int, textProb float64) *refNode {
	labels := []dict.LabelID{lPlay, lAct, lScene, lSpeech, lSpeaker, lLine}
	var gen func(d int) *refNode
	gen = func(d int) *refNode {
		if d >= depth || (d > 1 && rng.Float64() < textProb) {
			return &refNode{isText: true, label: dict.Text,
				text: strings.Repeat("word ", 1+rng.Intn(20))}
		}
		n := &refNode{label: labels[rng.Intn(len(labels))]}
		for i := 0; i < 1+rng.Intn(maxFanout); i++ {
			n.children = append(n.children, gen(d+1))
		}
		return n
	}
	r := gen(0)
	r.isText = false // root must be an element
	r.label = lPlay
	return r
}

// loadIncremental stores a ref tree through the per-node growth
// procedure (the paper's figure 5), pre-order.
func loadIncremental(t *testing.T, s *Store, r *refNode) *Tree {
	t.Helper()
	tr, err := s.CreateTree(r.label)
	if err != nil {
		t.Fatal(err)
	}
	var insert func(path Path, n *refNode)
	insert = func(path Path, n *refNode) {
		for i, c := range n.children {
			var pn *noderep.Node
			if c.isText {
				pn = noderep.NewTextLiteral(c.text)
			} else {
				pn = noderep.NewAggregate(c.label)
			}
			if err := tr.InsertChild(path, i, pn); err != nil {
				t.Fatalf("insert at %s[%d]: %v", path, i, err)
			}
			if !c.isText {
				insert(append(path.Clone(), i), c)
			}
		}
	}
	insert(Path{}, r)
	return tr
}

// loadBulk stores a ref tree through the bulk builder.
func loadBulk(t *testing.T, s *Store, r *refNode, opts BulkOptions) *Tree {
	t.Helper()
	return s.OpenTree(buildBulk(t, s.NewBulkBuilder(opts), r))
}

// buildBulk drives one builder through a ref tree and returns the root
// record.
func buildBulk(t *testing.T, b *BulkBuilder, r *refNode) records.RID {
	t.Helper()
	var walk func(n *refNode)
	walk = func(n *refNode) {
		if n.isText {
			if err := b.Leaf(noderep.NewTextLiteral(n.text)); err != nil {
				t.Fatal(err)
			}
			return
		}
		if err := b.Open(noderep.NewAggregate(n.label)); err != nil {
			t.Fatal(err)
		}
		for _, c := range n.children {
			walk(c)
		}
		if _, err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
	walk(r)
	rid, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return rid
}

// TestBulkEquivalence: bulk-loaded trees must be logically identical to
// incrementally grown ones and satisfy every physical invariant, across
// shapes, page sizes and split policies.
func TestBulkEquivalence(t *testing.T) {
	shapes := []struct {
		name     string
		depth    int
		fanout   int
		textProb float64
	}{
		{"deep", 24, 2, 0.1},
		{"wide", 3, 60, 0.2},
		{"mixed", 8, 6, 0.5},
		{"texty", 5, 8, 0.8},
	}
	matrices := map[string]*SplitMatrix{
		"other":      AllOther(),
		"standalone": AllStandalone(),
	}
	clustered := NewSplitMatrix(PolicyOther)
	clustered.Set(lSpeech, lSpeaker, PolicyCluster)
	clustered.Set(lScene, lSpeech, PolicyCluster)
	clustered.Set(lPlay, lAct, PolicyStandalone)
	matrices["mixedPolicy"] = clustered

	for _, shape := range shapes {
		for mname, m := range matrices {
			t.Run(shape.name+"_"+mname, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(shape.depth)*1000 + int64(len(mname))))
				ref := genRefTree(rng, shape.depth, shape.fanout, shape.textProb)
				cfg := Config{Matrix: m}
				inc := loadIncremental(t, newStore(t, 2048, cfg), ref)
				blk := loadBulk(t, newStore(t, 2048, cfg), ref, BulkOptions{})
				if err := blk.CheckInvariants(); err != nil {
					t.Fatalf("bulk invariants: %v", err)
				}
				got := materialize(t, blk)
				want := materialize(t, inc)
				if !refEqual(got, want) {
					t.Fatalf("bulk tree differs from incremental\nbulk:\n%s\nincremental:\n%s", got, want)
				}
				if !refEqual(got, ref) {
					t.Fatalf("bulk tree differs from source")
				}
			})
		}
	}
}

// TestBulkOneRecordPerNode: the all-standalone matrix must yield the
// 1:1 systems' shape — every logical node in a record of its own — from
// the bulk path too.
func TestBulkOneRecordPerNode(t *testing.T) {
	s := newStore(t, 2048, Config{Matrix: AllStandalone()})
	ref := &refNode{label: lPlay, children: []*refNode{
		{label: lAct, children: []*refNode{
			{isText: true, label: dict.Text, text: "one"},
			{isText: true, label: dict.Text, text: "two"},
		}},
		{label: lScene},
	}}
	tr := loadBulk(t, s, ref, BulkOptions{})
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	n, err := tr.RecordCount()
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 { // play, act, scene, two literals
		t.Fatalf("RecordCount = %d, want 5 (one per logical node)", n)
	}
}

// TestBulkClusterPinned: ∞ entries keep children embedded with their
// parent for as long as possible.
func TestBulkClusterPinned(t *testing.T) {
	m := NewSplitMatrix(PolicyOther)
	m.Set(lSpeech, lSpeaker, PolicyCluster)
	s := newStore(t, 2048, Config{Matrix: m})
	ref := &refNode{label: lPlay}
	for i := 0; i < 40; i++ {
		sp := &refNode{label: lSpeech, children: []*refNode{
			{label: lSpeaker, children: []*refNode{{isText: true, label: dict.Text, text: "HAMLET"}}},
			{label: lLine, children: []*refNode{{isText: true, label: dict.Text, text: strings.Repeat("line text ", 12)}}},
		}}
		ref.children = append(ref.children, sp)
	}
	tr := loadBulk(t, s, ref, BulkOptions{})
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every SPEAKER must live in the same record as its SPEECH: no proxy
	// may sit between a speech and its pinned speaker.
	var offenders int
	seen := map[string]bool{}
	var visit func(rid records.RID) error
	visit = func(rid records.RID) error {
		rec, err := s.LoadRecordForInspection(rid)
		if err != nil {
			return err
		}
		rec.Root.Walk(func(n *noderep.Node) bool {
			if n.Kind == noderep.KindAggregate && n.Label == lSpeech {
				hasSpeaker := false
				for _, c := range n.Children {
					if c.Kind == noderep.KindAggregate && c.Label == lSpeaker {
						hasSpeaker = true
					}
				}
				if !hasSpeaker {
					offenders++
				}
			}
			if n.Kind == noderep.KindProxy {
				if !seen[n.Target.String()] {
					seen[n.Target.String()] = true
					if err := visit(n.Target); err != nil {
						offenders++
					}
				}
			}
			return true
		})
		return nil
	}
	if err := visit(tr.RootRID()); err != nil {
		t.Fatal(err)
	}
	if offenders != 0 {
		t.Fatalf("%d speeches separated from their pinned speaker", offenders)
	}
}

// TestBulkFillFactorPacking: a lower fill factor spreads the same
// content over more pages (slack for later updates).
func TestBulkFillFactorPacking(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref := genRefTree(rng, 7, 8, 0.5)
	sFull := newStore(t, 2048, Config{})
	sHalf := newStore(t, 2048, Config{})

	bFull := sFull.NewBulkBuilder(BulkOptions{FillFactor: 1.0})
	bHalf := sHalf.NewBulkBuilder(BulkOptions{FillFactor: 0.5})
	buildBulk(t, bFull, ref)
	buildBulk(t, bHalf, ref)
	if bHalf.BatchStats().Pages <= bFull.BatchStats().Pages {
		t.Fatalf("fill 0.5 used %d pages, fill 1.0 used %d — expected more",
			bHalf.BatchStats().Pages, bFull.BatchStats().Pages)
	}
}

// TestBulkWrittenOnce: the bulk path must never rewrite a record — the
// defining property of the fast path.
func TestBulkWrittenOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ref := genRefTree(rng, 10, 6, 0.4)
	s := newStore(t, 2048, Config{})
	tr := loadBulk(t, s, ref, BulkOptions{})
	st := s.Stats()
	if st.RecordsRewritten != 0 {
		t.Fatalf("bulk load rewrote %d records", st.RecordsRewritten)
	}
	n, err := tr.RecordCount()
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) != st.RecordsCreated {
		t.Fatalf("reachable records %d != records created %d", n, st.RecordsCreated)
	}
	// Incremental loading of the same tree rewrites heavily by design.
	s2 := newStore(t, 2048, Config{})
	loadIncremental(t, s2, ref)
	if s2.Stats().RecordsRewritten == 0 {
		t.Fatal("incremental load reported zero rewrites — counter broken?")
	}
}

// TestBulkAbort: an aborted build balances its books and leaves the
// store usable.
func TestBulkAbort(t *testing.T) {
	s := newStore(t, 2048, Config{})
	b := s.NewBulkBuilder(BulkOptions{})
	if err := b.Open(noderep.NewAggregate(lPlay)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := b.Open(noderep.NewAggregate(lScene)); err != nil {
			t.Fatal(err)
		}
		if err := b.Leaf(noderep.NewTextLiteral(strings.Repeat("x", 100))); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Abort(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.RecordsCreated != st.RecordsDeleted {
		t.Fatalf("abort leaked records: created %d, deleted %d", st.RecordsCreated, st.RecordsDeleted)
	}
	// The store stays usable for a fresh build.
	rng := rand.New(rand.NewSource(3))
	tr := loadBulk(t, s, genRefTree(rng, 6, 4, 0.3), BulkOptions{})
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBulkThenIncrementalInserts: a bulk-loaded tree must accept normal
// InsertChild mutations afterwards (the fill slack exists for them).
func TestBulkThenIncrementalInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ref := genRefTree(rng, 6, 5, 0.4)
	s := newStore(t, 2048, Config{})
	tr := loadBulk(t, s, ref, BulkOptions{FillFactor: 0.8})
	for i := 0; i < 30; i++ {
		if err := tr.InsertChild(Path{}, -1, noderep.NewAggregate(lLine)); err != nil {
			t.Fatalf("post-bulk insert %d: %v", i, err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := materialize(t, tr)
	want := ref.clone()
	for i := 0; i < 30; i++ {
		want.children = append(want.children, &refNode{label: lLine})
	}
	if !refEqual(got, want) {
		t.Fatal("post-bulk inserts diverged from reference")
	}
}
