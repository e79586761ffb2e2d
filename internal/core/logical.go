package core

import (
	"fmt"

	"natix/internal/dict"
	"natix/internal/noderep"
	"natix/internal/records"
)

// NodeRef addresses one facade node of a decoded record: the record it
// lives in plus the parsed physical node. It is the write path's address
// (Locate, childEntries) and, through Root and Children, the decoded
// reference the differential tests hold ReadRef to. Refs are invalidated
// by any mutation of the tree.
type NodeRef struct {
	rid  records.RID
	node *noderep.Node
	rec  *noderep.Record // parsed record instance node belongs to
}

// RID returns the record holding the node.
func (r NodeRef) RID() records.RID { return r.rid }

// Label returns the node's label id.
func (r NodeRef) Label() dict.LabelID { return r.node.Label }

// IsLiteral reports whether the node is a literal leaf.
func (r NodeRef) IsLiteral() bool { return r.node.Kind == noderep.KindLiteral }

// StringValue returns the character data of a string or URI literal; for
// any other node the error noderep.Node.StringValue reports.
func (r NodeRef) StringValue() (string, error) { return r.node.StringValue() }

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

// Children returns the logical children of ref in document order, read
// off the decoded records (collectEntries): the reference the image walk,
// ReadChildren, is held to.
func (s *Store) Children(ref NodeRef) ([]NodeRef, error) {
	if ref.node.Kind != noderep.KindAggregate {
		return nil, nil
	}
	var entries []childEntry
	if err := s.collectEntries(ref.rid, ref.rec, ref.node, -1, &entries); err != nil {
		return nil, err
	}
	kids := make([]NodeRef, len(entries))
	for i, e := range entries {
		kids[i] = e.ref
	}
	return kids, nil
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
// record rid — the idx-th node Children would return, found without
// building the list or expanding anything behind it. When agg has no such
// child the ref is zero and n is the number of logical children it does
// have.
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

// Cursor provides DOM-style navigation over the logical tree, reading the
// record images (ReadRoot, ReadChildren): it decodes nothing. It holds
// the expanded child lists of the current ancestor chain, so a full
// traversal reads each record once per visit path.
type Cursor struct {
	store *Store
	stack []cursorFrame
}

type cursorFrame struct {
	ref  ReadRef
	kids []ReadRef // expanded lazily
	idx  int       // index of ref within parent's kids (-1 for root)
}

// Cursor opens a cursor positioned at the tree root.
func (t *Tree) Cursor() (*Cursor, error) {
	root, err := t.store.ReadRoot(t.rootRID)
	if err != nil {
		return nil, err
	}
	return &Cursor{store: t.store, stack: []cursorFrame{{ref: root, idx: -1}}}, nil
}

// cur returns the top frame.
func (c *Cursor) cur() *cursorFrame { return &c.stack[len(c.stack)-1] }

// Ref returns the node the cursor points at.
func (c *Cursor) Ref() ReadRef { return c.cur().ref }

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
func (c *Cursor) kids() ([]ReadRef, error) {
	f := c.cur()
	if f.kids == nil {
		k, err := c.store.ReadChildren(&f.ref, nil)
		if err != nil {
			return nil, err
		}
		if k == nil {
			k = []ReadRef{}
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
