package core

import (
	"fmt"

	"natix/internal/dict"
	"natix/internal/noderep"
	"natix/internal/records"
)

// NodeRef addresses one facade node: the record it lives in plus the
// parsed physical node. Refs are invalidated by any mutation of the tree;
// they are meant for read traversals and for immediate use during one
// insert/delete operation.
type NodeRef struct {
	rid  records.RID
	node *noderep.Node
	rec  *noderep.Record // parsed record instance node belongs to
}

// RID returns the record holding the node.
func (r NodeRef) RID() records.RID { return r.rid }

// Kind returns the physical node kind (aggregate or literal; proxies and
// scaffolds are never exposed through logical navigation).
func (r NodeRef) Kind() noderep.Kind { return r.node.Kind }

// Label returns the node's label id.
func (r NodeRef) Label() dict.LabelID { return r.node.Label }

// IsLiteral reports whether the node is a literal leaf.
func (r NodeRef) IsLiteral() bool { return r.node.Kind == noderep.KindLiteral }

// Literal returns the underlying literal node for payload access.
func (r NodeRef) Literal() *noderep.Node { return r.node }

// Path is a logical path from the tree root: a sequence of child indexes.
type Path []int

// String renders the path like /2/0/1.
func (p Path) String() string {
	if len(p) == 0 {
		return "/"
	}
	s := ""
	for _, i := range p {
		s += fmt.Sprintf("/%d", i)
	}
	return s
}

// Clone returns a copy of the path.
func (p Path) Clone() Path { return append(Path(nil), p...) }

// Root returns a ref to the tree's logical root node.
func (t *Tree) Root() (NodeRef, error) {
	rec, err := t.store.loadRecord(t.rootRID)
	if err != nil {
		return NodeRef{}, err
	}
	return NodeRef{rid: t.rootRID, node: rec.Root, rec: rec}, nil
}

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

// FacadeIndexer assigns each node its *facade index*: the node's
// position in its record's facade enumeration — the pre-order walk of
// the record's physical tree counting only facade nodes (proxies are
// leaves of that walk, so the enumeration never leaves the record).
// Together with the record RID the facade index forms a persistable
// logical node address that stays valid as long as the record is not
// rewritten — the address the path index stores in its postings, and
// what a FacadeWalker resolves over the record's image.
//
// Enumerations are memoized per parsed record, so addressing every
// node of a record costs one walk instead of one walk per node. The
// memo is keyed on parsed record instances and must not outlive
// mutations of the tree.
type FacadeIndexer struct {
	memo map[*noderep.Record]map[*noderep.Node]int
}

// NewFacadeIndexer returns an empty indexer.
func NewFacadeIndexer() *FacadeIndexer {
	return &FacadeIndexer{memo: make(map[*noderep.Record]map[*noderep.Node]int)}
}

// Index returns FacadeIndex(ref), computing each record's enumeration
// at most once.
func (fi *FacadeIndexer) Index(ref NodeRef) (int, error) {
	m, ok := fi.memo[ref.rec]
	if !ok {
		m = make(map[*noderep.Node]int)
		ref.rec.Root.Walk(func(n *noderep.Node) bool {
			if isFacade(n) {
				m[n] = len(m)
			}
			return true
		})
		fi.memo[ref.rec] = m
	}
	idx, ok := m[ref.node]
	if !ok {
		return 0, fmt.Errorf("core: node not found in record %s", ref.rid)
	}
	return idx, nil
}

// physPos locates a physical child slot: the record, the physical parent
// aggregate inside it, and the index among that aggregate's children.
type physPos struct {
	rid    records.RID
	rec    *noderep.Record // parsed record instance parent belongs to
	parent *noderep.Node
	idx    int
}

// childEntry is one logical child of an aggregate, with the physical slot
// that holds it (for facade roots of other records, the slot of the proxy
// pointing at them) and the index of the top-level physical child of the
// parent it was reached through.
type childEntry struct {
	ref    NodeRef
	slot   physPos
	topIdx int
}

// childEntries expands the logical children of ref in document order,
// resolving proxies and splicing scaffolding aggregates transparently
// ("Substituting all proxies by their respective subtrees reconstructs
// the original data tree", §2.3.3). Only mutating operations need the
// slots, so the list is built in the store's scratch: it is valid until
// the next call.
func (s *Store) childEntries(ref NodeRef) ([]childEntry, error) {
	if ref.node.Kind != noderep.KindAggregate {
		return nil, nil
	}
	s.entries = s.entries[:0]
	err := s.collectEntries(ref.rid, ref.rec, ref.node, -1, &s.entries)
	return s.entries, err
}

// collectEntries appends the logical children of the aggregate agg (which
// lives in record rid). top overrides the top-level index when recursing
// into scaffold records (-1 means "use the local index").
func (s *Store) collectEntries(rid records.RID, rec *noderep.Record, agg *noderep.Node, top int, out *[]childEntry) error {
	for i, n := range agg.Children {
		topIdx := top
		if topIdx < 0 {
			topIdx = i
		}
		if n.Kind == noderep.KindProxy {
			child, err := s.loadRecord(n.Target)
			if err != nil {
				return fmt.Errorf("resolving proxy to %s: %w", n.Target, err)
			}
			if child.Root.Scaffold && child.Root.Kind == noderep.KindAggregate {
				// Scaffolding aggregate: splice its children here.
				if err := s.collectEntries(n.Target, child, child.Root, topIdx, out); err != nil {
					return err
				}
			} else {
				*out = append(*out, childEntry{
					ref:    NodeRef{rid: n.Target, node: child.Root, rec: child},
					slot:   physPos{rid: rid, rec: rec, parent: agg, idx: i},
					topIdx: topIdx,
				})
			}
		} else {
			*out = append(*out, childEntry{
				ref:    NodeRef{rid: rid, node: n, rec: rec},
				slot:   physPos{rid: rid, rec: rec, parent: agg, idx: i},
				topIdx: topIdx,
			})
		}
	}
	return nil
}

// Children returns the logical children of ref in document order.
func (s *Store) Children(ref NodeRef) ([]NodeRef, error) {
	return s.ChildrenAppend(ref, nil)
}

// ChildrenAppend appends ref's logical children to buf and returns the
// extended slice — the allocation-free variant of Children for callers
// that recycle traversal buffers. Unlike childEntries it carries no
// physical slot information, which is all the read paths need.
//
//natix:noalloc
func (s *Store) ChildrenAppend(ref NodeRef, buf []NodeRef) ([]NodeRef, error) {
	if ref.node.Kind != noderep.KindAggregate {
		return buf, nil
	}
	return s.appendChildRefs(ref.rid, ref.rec, ref.node, buf)
}

// appendChildRefs is collectEntries minus the slot bookkeeping,
// appending bare refs into a caller-owned buffer.
//
//natix:noalloc
func (s *Store) appendChildRefs(rid records.RID, rec *noderep.Record, agg *noderep.Node, out []NodeRef) ([]NodeRef, error) {
	for _, n := range agg.Children {
		if n.Kind == noderep.KindProxy {
			child, err := s.loadRecord(n.Target)
			if err != nil {
				return out, fmt.Errorf("resolving proxy to %s: %w", n.Target, err) //natix:vet-ignore I/O error path
			}
			if child.Root.Scaffold && child.Root.Kind == noderep.KindAggregate {
				if out, err = s.appendChildRefs(n.Target, child, child.Root, out); err != nil {
					return out, err
				}
			} else {
				out = append(out, NodeRef{rid: n.Target, node: child.Root, rec: child})
			}
		} else {
			out = append(out, NodeRef{rid: rid, node: n, rec: rec})
		}
	}
	return out, nil
}

// Locate resolves a logical path from the root. Each step stops at the
// child it wants (childAt): the siblings behind it — and the records
// their proxies point to — are not touched.
func (t *Tree) Locate(path Path) (NodeRef, error) {
	ref, err := t.Root()
	if err != nil {
		return NodeRef{}, err
	}
	for depth, idx := range path {
		kid, n, err := t.store.childAt(ref.rid, ref.rec, ref.node, idx)
		if err != nil {
			return NodeRef{}, err
		}
		if kid.node == nil {
			return NodeRef{}, fmt.Errorf("%w: %s (index %d of %d at depth %d)",
				ErrBadPath, path, idx, n, depth)
		}
		ref = kid
	}
	return ref, nil
}

// childAt returns logical child idx of the aggregate agg, which lives in
// record rid — the idx-th node appendChildRefs would append, found
// without building the list or expanding anything behind it. When agg
// has no such child the ref is zero and n is the number of logical
// children it does have.
//
//natix:noalloc
func (s *Store) childAt(rid records.RID, rec *noderep.Record, agg *noderep.Node, idx int) (ref NodeRef, n int, err error) {
	for _, c := range agg.Children {
		if c.Kind != noderep.KindProxy {
			if n == idx {
				return NodeRef{rid: rid, node: c, rec: rec}, n, nil
			}
			n++
			continue
		}
		child, err := s.loadRecord(c.Target)
		if err != nil {
			return NodeRef{}, n, fmt.Errorf("resolving proxy to %s: %w", c.Target, err) //natix:vet-ignore I/O error path
		}
		if child.Root.Scaffold && child.Root.Kind == noderep.KindAggregate {
			ref, k, err := s.childAt(c.Target, child, child.Root, idx-n)
			if n += k; err != nil || ref.node != nil {
				return ref, n, err
			}
			continue
		}
		if n == idx {
			return NodeRef{rid: c.Target, node: child.Root, rec: child}, n, nil
		}
		n++
	}
	return NodeRef{}, n, nil
}

// Cursor provides DOM-style navigation over the logical tree. It holds
// the expanded child lists of the current ancestor chain, so a full
// traversal loads each record once per visit path.
type Cursor struct {
	tree  *Tree
	stack []cursorFrame
}

type cursorFrame struct {
	ref  NodeRef
	kids []NodeRef // expanded lazily
	idx  int       // index of ref within parent's kids (-1 for root)
}

// Cursor opens a cursor positioned at the tree root.
func (t *Tree) Cursor() (*Cursor, error) {
	root, err := t.Root()
	if err != nil {
		return nil, err
	}
	return &Cursor{tree: t, stack: []cursorFrame{{ref: root, idx: -1}}}, nil
}

// cur returns the top frame.
func (c *Cursor) cur() *cursorFrame { return &c.stack[len(c.stack)-1] }

// Ref returns the node the cursor points at.
func (c *Cursor) Ref() NodeRef { return c.cur().ref }

// Label returns the current node's label.
func (c *Cursor) Label() dict.LabelID { return c.cur().ref.Label() }

// IsLiteral reports whether the current node is a literal.
func (c *Cursor) IsLiteral() bool { return c.cur().ref.IsLiteral() }

// Depth returns the number of ancestors above the current node.
func (c *Cursor) Depth() int { return len(c.stack) - 1 }

// Path returns the logical path of the current node.
func (c *Cursor) Path() Path {
	p := make(Path, 0, len(c.stack)-1)
	for _, f := range c.stack[1:] {
		p = append(p, f.idx)
	}
	return p
}

// kids returns (computing if needed) the expanded children of the top.
func (c *Cursor) kids() ([]NodeRef, error) {
	f := c.cur()
	if f.kids == nil {
		k, err := c.tree.store.Children(f.ref)
		if err != nil {
			return nil, err
		}
		if k == nil {
			k = []NodeRef{}
		}
		f.kids = k
	}
	return f.kids, nil
}

// FirstChild moves to the first child. It returns false (without moving)
// if the current node has none.
func (c *Cursor) FirstChild() (bool, error) {
	kids, err := c.kids()
	if err != nil {
		return false, err
	}
	if len(kids) == 0 {
		return false, nil
	}
	c.stack = append(c.stack, cursorFrame{ref: kids[0], idx: 0})
	return true, nil
}

// NextSibling moves to the next sibling. It returns false (without
// moving) at the last sibling or at the root.
func (c *Cursor) NextSibling() (bool, error) {
	if len(c.stack) < 2 {
		return false, nil
	}
	parent := &c.stack[len(c.stack)-2]
	me := c.cur()
	if me.idx+1 >= len(parent.kids) {
		return false, nil
	}
	c.stack[len(c.stack)-1] = cursorFrame{ref: parent.kids[me.idx+1], idx: me.idx + 1}
	return true, nil
}

// Parent moves to the parent. It returns false at the root.
func (c *Cursor) Parent() bool {
	if len(c.stack) < 2 {
		return false
	}
	c.stack = c.stack[:len(c.stack)-1]
	return true
}

// WalkPreOrder visits the subtree under the cursor's current node in
// pre-order (including the current node). fn returning false prunes the
// subtree below the current node (siblings are still visited). The
// cursor is restored to the starting node.
func (c *Cursor) WalkPreOrder(fn func(*Cursor) bool) error {
	if !fn(c) {
		return nil
	}
	down, err := c.FirstChild()
	if err != nil {
		return err
	}
	if !down {
		return nil // leaf: cursor never moved
	}
	for {
		if err := c.WalkPreOrder(fn); err != nil {
			return err
		}
		more, err := c.NextSibling()
		if err != nil {
			return err
		}
		if !more {
			break
		}
	}
	c.Parent()
	return nil
}

// BuildSubtree materializes the logical subtree under ref as a pure
// facade tree (no proxies, no scaffolds): the reconstruction the paper
// describes in §2.3.3. Used for export and for model-equivalence tests.
func (s *Store) BuildSubtree(ref NodeRef) (*noderep.Node, error) {
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
		sub, err := s.BuildSubtree(k)
		if err != nil {
			return nil, err
		}
		out.AppendChild(sub)
	}
	return out, nil
}
