package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"natix/internal/buffer"
	"natix/internal/noderep"
	"natix/internal/pagedev"
	"natix/internal/pageformat"
	"natix/internal/records"
	"natix/internal/segment"
)

// TestSubtreeBulkInsert inserts whole prebuilt subtrees (not just single
// nodes), including one large enough to force immediate splitting.
func TestSubtreeBulkInsert(t *testing.T) {
	s := newStore(t, 512, Config{})
	tr, _ := s.CreateTree(lPlay)

	speech := noderep.NewAggregate(lSpeech)
	sp := noderep.NewAggregate(lSpeaker)
	sp.AppendChild(noderep.NewTextLiteral("HAMLET"))
	speech.AppendChild(sp)
	for i := 0; i < 40; i++ {
		line := noderep.NewAggregate(lLine)
		line.AppendChild(noderep.NewTextLiteral(fmt.Sprintf("line %02d of a very long bulk speech", i)))
		speech.AppendChild(line)
	}
	// The subtree is several pages big: storeTreeRecord must split it
	// in memory during insertion.
	if err := tr.AppendChild(Path{}, speech); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := materialize(t, tr)
	if len(got.children) != 1 || len(got.children[0].children) != 41 {
		t.Fatalf("bulk subtree mangled: %d/%d", len(got.children), len(got.children[0].children))
	}
	if got.children[0].children[0].children[0].text != "HAMLET" {
		t.Fatal("speaker lost")
	}
}

// TestInsertAtEveryBoundary inserts at each logical index of a parent
// whose children span several records, checking order each time.
func TestInsertAtEveryBoundary(t *testing.T) {
	s := newStore(t, 512, Config{})
	tr, _ := s.CreateTree(lPlay)
	const initial = 30
	for i := 0; i < initial; i++ {
		if err := tr.AppendChild(Path{}, noderep.NewTextLiteral(fmt.Sprintf("original child %02d with padding text", i))); err != nil {
			t.Fatal(err)
		}
	}
	// The children now span multiple records. Insert markers at the
	// front, the exact middle and the end.
	for pass, idx := range []int{0, initial / 2, initial + 2} {
		marker := fmt.Sprintf("MARKER-%d", pass)
		if err := tr.InsertChild(Path{}, idx, noderep.NewTextLiteral(marker)); err != nil {
			t.Fatalf("insert at %d: %v", idx, err)
		}
		got := materialize(t, tr)
		if got.children[idx].text != marker {
			t.Fatalf("pass %d: child[%d] = %q, want %q", pass, idx, got.children[idx].text, marker)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestExtremeTolerances: tolerance larger than a page degrades to
// moving whole child subtrees; tiny tolerance splits aggressively. Both
// must stay correct.
func TestExtremeTolerances(t *testing.T) {
	for _, tol := range []int{1, 100000} {
		t.Run(fmt.Sprintf("tol%d", tol), func(t *testing.T) {
			s := newStore(t, 512, Config{SplitTolerance: tol})
			tr, _ := s.CreateTree(lPlay)
			for i := 0; i < 30; i++ {
				if err := tr.AppendChild(Path{}, noderep.NewTextLiteral(fmt.Sprintf("padding text number %03d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if got := materialize(t, tr); len(got.children) != 30 {
				t.Fatalf("children = %d", len(got.children))
			}
		})
	}
}

// TestDeepClusterChain: a chain of ∞ relationships pulls several levels
// into separators; correctness must survive.
func TestDeepClusterChain(t *testing.T) {
	m := AllOther()
	m.Set(lPlay, lAct, PolicyCluster)
	m.Set(lAct, lScene, PolicyCluster)
	m.Set(lScene, lSpeech, PolicyCluster)
	s := newStore(t, 512, Config{Matrix: m})
	tr, _ := s.CreateTree(lPlay)
	// Build a play where everything wants to stay together but cannot
	// possibly fit one page.
	for a := 0; a < 2; a++ {
		if err := tr.AppendChild(Path{}, noderep.NewAggregate(lAct)); err != nil {
			t.Fatal(err)
		}
		for sc := 0; sc < 2; sc++ {
			if err := tr.AppendChild(Path{a}, noderep.NewAggregate(lScene)); err != nil {
				t.Fatal(err)
			}
			for sp := 0; sp < 4; sp++ {
				if err := tr.AppendChild(Path{a, sc}, noderep.NewAggregate(lSpeech)); err != nil {
					t.Fatal(err)
				}
				for l := 0; l < 4; l++ {
					if err := tr.AppendChild(Path{a, sc, sp}, noderep.NewTextLiteral(
						fmt.Sprintf("act %d scene %d speech %d line %d with padding", a, sc, sp, l))); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := materialize(t, tr)
	if len(got.children) != 2 || len(got.children[0].children) != 2 ||
		len(got.children[0].children[0].children) != 4 {
		t.Fatalf("structure mangled")
	}
}

// TestCorruptRecordDetected: flipping bytes inside a record body yields
// a decoding error, not silent misreads. (Page checksums catch this
// first in normal operation; here we bypass them.)
func TestCorruptRecordDetected(t *testing.T) {
	dev, _ := pagedev.NewMem(512)
	pool, _ := buffer.New(dev, 64)
	pool.SetVerifyChecksums(false)
	seg, _ := segment.Create(pool)
	rm := records.New(seg)
	s := New(rm, Config{})
	tr, _ := s.CreateTree(lPlay)
	for i := 0; i < 20; i++ {
		if err := tr.AppendChild(Path{}, noderep.NewTextLiteral(fmt.Sprintf("some content %02d here", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the root record's own cell bytes on the device.
	rid := tr.RootRID()
	buf := make([]byte, 512)
	if err := dev.Read(rid.Page, buf); err != nil {
		t.Fatal(err)
	}
	sl, err := pageformat.AsSlotted(buf)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := sl.Cell(int(rid.Slot))
	if err != nil {
		t.Fatal(err)
	}
	for i := range cell {
		cell[i] ^= 0xA5
	}
	if err := dev.Write(rid.Page, buf); err != nil {
		t.Fatal(err)
	}
	pool.Clear()
	s.InvalidateCache()
	if err := tr.CheckInvariants(); err == nil {
		// Corruption may land in slot bookkeeping instead of the record;
		// either way the tree must not read back cleanly.
		if _, err2 := tr.Root(); err2 == nil {
			kids, err3 := s.Children(mustRoot(t, tr))
			if err3 == nil && len(kids) == 20 {
				ok := true
				for i, k := range kids {
					txt, err := refTextContent(s, k)
					if err != nil || txt != fmt.Sprintf("some content %02d here", i) {
						ok = false
						break
					}
				}
				if ok {
					t.Fatal("corruption went completely undetected")
				}
			}
		}
	}
}

func mustRoot(t *testing.T, tr *Tree) NodeRef {
	t.Helper()
	ref, err := tr.Root()
	if err != nil {
		t.Skip("root unreadable (fine for corruption test)")
	}
	return ref
}

// TestReopenStore: a second core.Store over the same pages sees the same
// logical tree.
func TestReopenStore(t *testing.T) {
	dev, _ := pagedev.NewMem(512)
	pool, _ := buffer.New(dev, 64)
	seg, _ := segment.Create(pool)
	rm := records.New(seg)
	s := New(rm, Config{})
	tr, _ := s.CreateTree(lPlay)
	for i := 0; i < 25; i++ {
		if err := tr.AppendChild(Path{}, noderep.NewTextLiteral(fmt.Sprintf("persistent text %02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	rootRID := tr.RootRID()
	if err := pool.Clear(); err != nil {
		t.Fatal(err)
	}

	pool2, _ := buffer.New(dev, 64)
	seg2, err := segment.Open(pool2)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(records.New(seg2), Config{})
	tr2 := s2.OpenTree(rootRID)
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := materialize(t, tr2)
	if len(got.children) != 25 {
		t.Fatalf("children after reopen = %d", len(got.children))
	}
	for i, c := range got.children {
		if c.text != fmt.Sprintf("persistent text %02d", i) {
			t.Fatalf("child %d = %q", i, c.text)
		}
	}
}

// TestTypedLiteralsThroughStorage: non-string literals survive the full
// storage round trip.
func TestTypedLiteralsThroughStorage(t *testing.T) {
	s := newStore(t, 512, Config{})
	tr, _ := s.CreateTree(lPlay)
	if err := tr.AppendChild(Path{}, noderep.NewIntLiteral(lLine, -123456789)); err != nil {
		t.Fatal(err)
	}
	if err := tr.AppendChild(Path{}, noderep.NewFloatLiteral(lLine, 2.5)); err != nil {
		t.Fatal(err)
	}
	if err := tr.AppendChild(Path{}, noderep.NewURILiteral(lLine, "https://example.org/atlas")); err != nil {
		t.Fatal(err)
	}
	root, _ := tr.Root()
	kids, err := s.Children(root)
	if err != nil || len(kids) != 3 {
		t.Fatalf("kids = %d, %v", len(kids), err)
	}
	if v, err := kids[0].node.IntValue(); err != nil || v != -123456789 {
		t.Fatalf("int = %d, %v", v, err)
	}
	if v, err := kids[1].node.FloatValue(); err != nil || v != 2.5 {
		t.Fatalf("float = %v, %v", v, err)
	}
	if v, err := kids[2].StringValue(); err != nil || v != "https://example.org/atlas" {
		t.Fatalf("uri = %q, %v", v, err)
	}
}

// TestManySmallDocuments: dozens of trees coexist in one store without
// interference.
func TestManySmallDocuments(t *testing.T) {
	s := newStore(t, 512, Config{})
	var trees []*Tree
	for d := 0; d < 20; d++ {
		tr, err := s.CreateTree(lPlay)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := tr.AppendChild(Path{}, noderep.NewTextLiteral(fmt.Sprintf("doc %d item %d padding", d, i))); err != nil {
				t.Fatal(err)
			}
		}
		trees = append(trees, tr)
	}
	// Delete every other tree, then verify the rest.
	for d := 0; d < 20; d += 2 {
		if err := trees[d].DeleteTree(); err != nil {
			t.Fatal(err)
		}
	}
	for d := 1; d < 20; d += 2 {
		if err := trees[d].CheckInvariants(); err != nil {
			t.Fatalf("doc %d: %v", d, err)
		}
		got := materialize(t, trees[d])
		if len(got.children) != 10 || !strings.HasPrefix(got.children[0].text, fmt.Sprintf("doc %d ", d)) {
			t.Fatalf("doc %d content wrong", d)
		}
	}
}

// TestSeparatorSpecialCaseSingleProxy: splits of records whose partition
// group is exactly one proxy must inline the proxy (§3.2.2 special case
// 1) rather than chain scaffolding records. We detect it structurally:
// no record may consist of a scaffold root with a single proxy child.
func TestSeparatorSpecialCaseSingleProxy(t *testing.T) {
	s := newStore(t, 512, Config{})
	tr, _ := s.CreateTree(lPlay)
	// Interleave aggregates and literals to produce proxy-rich records,
	// then keep splitting them.
	for i := 0; i < 60; i++ {
		if i%3 == 0 {
			agg := noderep.NewAggregate(lScene)
			agg.AppendChild(noderep.NewTextLiteral(fmt.Sprintf("scene body %02d with quite a bit of padding text", i)))
			if err := tr.AppendChild(Path{}, agg); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := tr.AppendChild(Path{}, noderep.NewTextLiteral(fmt.Sprintf("inter %02d padding", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Structural audit.
	var audit func(rid records.RID) error
	var badRecords int
	audit = func(rid records.RID) error {
		rec, err := refLoadRecord(s, rid)
		if err != nil {
			return err
		}
		if rec.Root.Scaffold && len(rec.Root.Children) == 1 &&
			rec.Root.Children[0].Kind == noderep.KindProxy {
			badRecords++
		}
		var firstErr error
		rec.Root.Walk(func(n *noderep.Node) bool {
			if n.Kind == noderep.KindProxy {
				if err := audit(n.Target); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			return true
		})
		return firstErr
	}
	if err := audit(tr.RootRID()); err != nil {
		t.Fatal(err)
	}
	if badRecords > 0 {
		t.Fatalf("%d single-proxy scaffold records exist (special case 1 not applied)", badRecords)
	}
}

// TestBigLeadingLeafSplit: a record whose first child is a large leaf
// that holds the size midpoint used to drive the split into an
// infinite oversize-partition recursion (the left partition was empty
// and the right repacked everything at the same size). Regression for
// the degenerate-descent guard.
func TestBigLeadingLeafSplit(t *testing.T) {
	for _, tol := range []int{0 /* default */, 4096} {
		s := newStore(t, 8192, Config{SplitTolerance: tol})
		tr, _ := s.CreateTree(lPlay)
		big := strings.Repeat("x", 5000)
		if err := tr.AppendChild(Path{}, noderep.NewTextLiteral(big)); err != nil {
			t.Fatal(err)
		}
		// Grow until well past one page.
		for i := 0; i < 120; i++ {
			if err := tr.AppendChild(Path{}, noderep.NewTextLiteral(fmt.Sprintf("filler %03d with some padding", i))); err != nil {
				t.Fatalf("tol=%d insert %d: %v", tol, i, err)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("tol=%d: %v", tol, err)
		}
		got := materialize(t, tr)
		if len(got.children) != 121 {
			t.Fatalf("tol=%d: children = %d", tol, len(got.children))
		}
		if got.children[0].text != big {
			t.Fatalf("tol=%d: big leaf corrupted", tol)
		}
	}
}

// TestRecordAtExactCapacity pins the one comparison the insert path makes
// between its measure pass and its emit pass: a record whose image is
// exactly the net page capacity is written in place, one byte more splits
// it — and either way what reaches the page is what a from-scratch encode
// of the tree produces.
func TestRecordAtExactCapacity(t *testing.T) {
	for _, over := range []int{0, 1} {
		s := newStore(t, 1024, Config{})
		tr, err := s.CreateTree(lPlay)
		if err != nil {
			t.Fatal(err)
		}
		// A text of the root's own, so that the record's type table holds
		// the #text type (the texts of the lines are fused and cite none),
		// and thirteen lines (eight, while each text still had a header;
		// twelve, while table entries took four bytes): enough bytes in
		// front of the pad that it stays under the largest literal a record
		// takes (capacity − 128).
		if err := tr.AppendChild(Path{}, noderep.NewTextLiteral("x")); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 13; i++ {
			line := noderep.NewAggregate(lLine)
			line.AppendChild(noderep.NewTextLiteral(fmt.Sprintf("line %d", i)))
			if err := tr.AppendChild(Path{}, line); err != nil {
				t.Fatal(err)
			}
		}
		rec, err := refLoadRecord(s, tr.RootRID())
		if err != nil {
			t.Fatal(err)
		}
		// What the record takes with a text of a long size form added: that
		// text's header and payload, and a type entry if the record cites
		// no #text yet.
		probe := noderep.NewTextLiteral(strings.Repeat("x", 200))
		rec.Root.AppendChild(probe)
		pad := s.maxRecordSize() - (noderep.EncodedSize(rec) - 200) + over
		rec.Root.RemoveChild(len(rec.Root.Children) - 1)
		if err := tr.AppendChild(Path{}, noderep.NewTextLiteral(strings.Repeat("x", pad))); err != nil {
			t.Fatal(err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if over == 0 {
			if st.Splits != 0 {
				t.Fatalf("a record of exactly %d bytes split", s.maxRecordSize())
			}
			if size, err := s.rm.Size(tr.RootRID()); err != nil || size != s.maxRecordSize() {
				t.Fatalf("stored root record is %d bytes (err %v), want the capacity %d", size, err, s.maxRecordSize())
			}
		} else if st.Splits == 0 {
			t.Fatalf("a record of %d bytes did not split (capacity %d)", s.maxRecordSize()+1, s.maxRecordSize())
		}
		// Every stored image equals a fresh encode of its cached tree.
		var walk func(rid records.RID)
		walk = func(rid records.RID) {
			rec, err := refLoadRecord(s, rid)
			if err != nil {
				t.Fatal(err)
			}
			stored, err := s.rm.Read(rid)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := noderep.Encode(&noderep.Record{ParentRID: rec.ParentRID, Root: rec.Root})
			if err != nil {
				t.Fatal(err)
			}
			if string(stored) != string(fresh) {
				t.Fatalf("record %s: stored image differs from a fresh encode of its tree", rid)
			}
			rec.Root.Walk(func(n *noderep.Node) bool {
				if n.Kind == noderep.KindProxy {
					walk(n.Target)
				}
				return true
			})
		}
		walk(tr.RootRID())
		if got := materialize(t, tr); len(got.children) != 15 {
			t.Fatalf("%d children, want 15", len(got.children))
		}
	}
}

// TestProxyCycleIsAnError: a record rewritten to hold a proxy back to the
// tree's root record closes a cycle in the record graph. Every walk of
// the graph — RecordCount, CheckInvariants, DeleteTree — returns an error
// instead of following the proxies until the stack overflows, and
// DeleteTree removes no record before it fails.
func TestProxyCycleIsAnError(t *testing.T) {
	s := newStore(t, 512, Config{})
	tr, err := s.CreateTree(lPlay)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := tr.AppendChild(Path{}, noderep.NewTextLiteral(fmt.Sprintf("%-40s", fmt.Sprint("text ", i)))); err != nil {
			t.Fatal(err)
		}
	}
	root := tr.RootRID()
	rec, err := s.LoadRecordForInspection(root)
	if err != nil {
		t.Fatal(err)
	}
	child := records.NilRID
	rec.Root.Walk(func(n *noderep.Node) bool {
		if n.Kind == noderep.KindProxy && child.IsNil() {
			child = n.Target
		}
		return true
	})
	if child.IsNil() {
		t.Fatal("the root record holds no proxy")
	}
	crec, err := s.LoadRecordForInspection(child)
	if err != nil {
		t.Fatal(err)
	}
	crec.Root.AppendChild(noderep.NewProxy(root))
	body, err := noderep.Encode(crec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Records().Update(child, body); err != nil {
		t.Fatal(err)
	}
	s.InvalidateCache()

	if n, err := tr.RecordCount(); err == nil {
		t.Errorf("RecordCount = %d over a proxy cycle, want an error", n)
	}
	if err := tr.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "reachable twice") {
		t.Errorf("CheckInvariants = %v, want a record reachable twice", err)
	}
	deleted := s.Stats().RecordsDeleted
	if err := tr.DeleteTree(); err == nil {
		t.Error("DeleteTree over a proxy cycle succeeded")
	}
	if n := s.Stats().RecordsDeleted - deleted; n != 0 {
		t.Errorf("DeleteTree removed %d records before it failed", n)
	}
}

// TestPatchParentRIDReadsNoUncheckedHeader: a parent-pointer fixup reads
// the child's parent RID only once the child's root header reads: a child
// whose type-table count puts that RID past the end of its image is a
// corrupt record, not a read outside the image. An intact child takes
// the patch.
func TestPatchParentRIDReadsNoUncheckedHeader(t *testing.T) {
	s := newStore(t, 2048, Config{})
	var rids [3]records.RID
	for i := range rids {
		tr, err := s.CreateTree(lAct)
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = tr.RootRID()
	}
	parent, intact, damaged := rids[0], rids[1], rids[2]
	if err := s.rm.Patch(damaged, 2, []byte{0xF0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := s.patchParentRID(damaged, parent); !errors.Is(err, noderep.ErrCorruptRecord) {
		t.Fatalf("patch of a child whose table count passes its image: %v, want ErrCorruptRecord", err)
	}
	if err := s.patchParentRID(intact, parent); err != nil {
		t.Fatal(err)
	}
	img, err := s.rm.Read(intact)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := noderep.ImageParentRID(img); got != parent {
		t.Fatalf("patched parent RID %s, want %s", got, parent)
	}
}
