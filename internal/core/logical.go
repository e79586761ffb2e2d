package core

import (
	"fmt"

	"natix/internal/dict"
	"natix/internal/noderep"
	"natix/internal/records"
)

// NodeRef addresses one facade node of a decoded record: the record it
// lives in plus the decoded node, in a tree of the caller's own. Through
// Root and Children it is the decoded reference the differential tests
// hold the image readers and the write path to; nothing in the runtime
// reads it. Refs are invalidated by any mutation of the tree.
type NodeRef struct {
	rid  records.RID
	node *noderep.Node
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

// Root returns a ref to the tree's logical root node, decoded into a
// tree of the caller's own (LoadRecordForInspection).
func (t *Tree) Root() (NodeRef, error) {
	rec, err := t.store.LoadRecordForInspection(t.rootRID)
	if err != nil {
		return NodeRef{}, err
	}
	return NodeRef{rid: t.rootRID, node: rec.Root}, nil
}

// Children returns the logical children of ref in document order, each
// record behind a proxy decoded as it is reached and scaffolding
// aggregates spliced away ("Substituting all proxies by their respective
// subtrees reconstructs the original data tree", §2.3.3): the reference
// the image walk, ReadChildren, is held to.
func (s *Store) Children(ref NodeRef) ([]NodeRef, error) {
	var kids []NodeRef
	err := s.appendChildren(ref.rid, ref.node, &kids)
	return kids, err
}

func (s *Store) appendChildren(rid records.RID, agg *noderep.Node, out *[]NodeRef) error {
	if agg.Kind != noderep.KindAggregate {
		return nil
	}
	for _, n := range agg.Children {
		if n.Kind != noderep.KindProxy {
			*out = append(*out, NodeRef{rid: rid, node: n})
			continue
		}
		child, err := s.LoadRecordForInspection(n.Target)
		if err != nil {
			return fmt.Errorf("resolving proxy to %s: %w", n.Target, err)
		}
		if child.Root.Scaffold && child.Root.Kind == noderep.KindAggregate {
			if err := s.appendChildren(n.Target, child.Root, out); err != nil {
				return err
			}
			continue
		}
		*out = append(*out, NodeRef{rid: n.Target, node: child.Root})
	}
	return nil
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
