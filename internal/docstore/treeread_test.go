package docstore

import (
	"fmt"
	"testing"

	"natix/internal/core"
	"natix/internal/pathindex"
	"natix/internal/records"
)

// The read path as it ran over decoded records before it moved onto the
// record images — the navigating scan over core.NodeRefs and the
// resolution of a posting by a walk of the decoded record — kept as the
// tree route the differential tests hold the image route to. A tree-route
// match is read out by refMarkup and refTextContent (reference_test.go).

// treeRecordTree is recordTree over decoded records.
type treeRecordTree struct {
	s    *Store
	root records.RID
}

func (t treeRecordTree) rootNode() (core.NodeRef, error) {
	return t.s.trees.OpenTree(t.root).Root()
}

func (t treeRecordTree) children(n *core.NodeRef, buf []core.NodeRef) ([]core.NodeRef, error) {
	kids, err := t.s.trees.Children(*n)
	return append(buf, kids...), err
}

func (t treeRecordTree) matches(n *core.NodeRef, st *frame) (bool, error) {
	if n.IsLiteral() {
		return st.kind == nameText, nil
	}
	return st.matchesLabel(t.s.dict, n.Label())
}

// result is never called: treeQuery reads the matches off the machine.
func (treeRecordTree) result(*core.NodeRef, *Result) {}

// treeQuery evaluates steps over the decoded records of the named
// document and returns the matched nodes.
func treeQuery(s *Store, name string, steps []Step) ([]core.NodeRef, error) {
	info, err := s.Lookup(name)
	if err != nil {
		return nil, err
	}
	frames := compile(steps, s.dict)
	w := new(walk[core.NodeRef, treeRecordTree]).reset(treeRecordTree{s: s, root: info.Root}, nil, len(frames))
	m := newMachine(w, frames)
	var out []core.NodeRef
	ok, err := m.Next()
	for ; ok; ok, err = m.Next() {
		out = append(out, m.cur)
	}
	return out, err
}

// treeMarkups reads every tree-route match of query out as markup.
func treeMarkups(t testing.TB, s *Store, name, query string) []string {
	t.Helper()
	steps, err := ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := treeQuery(s, name, steps)
	if err != nil {
		t.Fatalf("%s over decoded records: %v", query, err)
	}
	out := make([]string, len(refs))
	for i, ref := range refs {
		if out[i], err = refMarkup(s, ref); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// facadeAddr is a posting's node address: record and facade index.
type facadeAddr struct {
	rid   records.RID
	local int
}

// refResolver maps every node address of the named document to its node
// in the decoded records, found by walking the decoded tree and numbering
// each record's nodes in the order the walk reaches them — the record's
// facade order, what the path index stores in the postings.
func refResolver(t testing.TB, s *Store, name string) func(pathindex.Posting) core.NodeRef {
	t.Helper()
	nodes := map[facadeAddr]core.NodeRef{}
	next := map[records.RID]int{}
	var visit func(ref core.NodeRef)
	visit = func(ref core.NodeRef) {
		nodes[facadeAddr{ref.RID(), next[ref.RID()]}] = ref
		next[ref.RID()]++
		kids, err := s.trees.Children(ref)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range kids {
			visit(k)
		}
	}
	visit(mustRootRef(t, s, name))
	return func(p pathindex.Posting) core.NodeRef {
		ref, ok := nodes[facadeAddr{p.RID, int(p.Local)}]
		if !ok {
			t.Fatalf("posting (%s, %d) addresses no node of the decoded tree", p.RID, p.Local)
		}
		return ref
	}
}

// mustReadRoot returns the root of the named document as the image
// route reads it.
func mustReadRoot(t testing.TB, s *Store, name string) core.ReadRef {
	t.Helper()
	info, err := s.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	root, err := s.trees.ReadRoot(info.Root)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// sameChildren holds the children the image route lists for a node to
// the ones the tree route lists for it: as many, and pairwise of one
// kind and label.
func sameChildren(tree []core.NodeRef, img []core.ReadRef) error {
	if len(tree) != len(img) {
		return fmt.Errorf("%d children over the images, %d in the decoded tree", len(img), len(tree))
	}
	for i := range tree {
		if tree[i].IsLiteral() != img[i].IsLiteral() || tree[i].Label() != img[i].Label() || tree[i].RID() != img[i].RID() {
			return fmt.Errorf("child %d differs between the images and the decoded tree", i)
		}
	}
	return nil
}
