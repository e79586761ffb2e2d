package core

import (
	"fmt"
	"slices"

	"natix/internal/noderep"
	"natix/internal/pagedev"
	"natix/internal/records"
)

// opCtx carries per-operation state: the tree being mutated and the set
// of parent-pointer fixups to apply once record placement has settled.
type opCtx struct {
	t *Tree
	// patches maps child record -> record that now holds its proxy.
	// Last writer wins as splits cascade upward. Made on the first patch:
	// most operations move no proxy.
	patches map[records.RID]records.RID
}

func newOpCtx(t *Tree) *opCtx { return &opCtx{t: t} }

func (ctx *opCtx) patch(child, parent records.RID) {
	if ctx.patches == nil {
		ctx.patches = make(map[records.RID]records.RID)
	}
	ctx.patches[child] = parent
}

// drop forgets a record that was deleted mid-operation.
func (ctx *opCtx) drop(rid records.RID) { delete(ctx.patches, rid) }

// apply writes all pending parent-pointer fixups.
func (ctx *opCtx) apply() error {
	s := ctx.t.store
	for child, parent := range ctx.patches {
		if err := s.patchParentRID(child, parent); err != nil {
			return fmt.Errorf("patching parent of %s: %w", child, err)
		}
	}
	return nil
}

// patchProxiesIn registers parent fixups for every proxy inside the
// given subtrees, which have just been placed in record rid.
func (ctx *opCtx) patchProxiesIn(rid records.RID, subtrees []*noderep.Node) {
	for _, sub := range subtrees {
		sub.Walk(func(n *noderep.Node) bool {
			if n.Kind == noderep.KindProxy {
				ctx.patch(n.Target, rid)
			}
			return true
		})
	}
}

// AppendChild inserts n as the last child of the node at parentPath.
func (t *Tree) AppendChild(parentPath Path, n *noderep.Node) error {
	return t.InsertChild(parentPath, -1, n)
}

// InsertChild inserts the facade subtree n as child number idx of the
// node at parentPath (idx == -1 appends). This is the paper's tree
// growth procedure (figure 5): determine the record the node belongs in
// (§3.2.1, governed by the split matrix), move or split that record if
// it cannot hold the node (§3.2.2), then place the node (§3.2.3).
func (t *Tree) InsertChild(parentPath Path, idx int, n *noderep.Node) error {
	s := t.store
	if err := s.checkInsertable(n); err != nil {
		return err
	}
	parent, err := t.Locate(parentPath)
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
		// "x is stored as a standalone node and a proxy is inserted
		// into y" (§3.3). Place the proxy in the parent's record when a
		// position there is order-correct.
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
		if err := s.placeAt(cand, noderep.NewProxy(childRID), ctx); err != nil {
			return err
		}
	default:
		cand, err := s.chooseCandidate(cands, policy, parent.rid)
		if err != nil {
			return err
		}
		if err := s.placeAt(cand, n, ctx); err != nil {
			return err
		}
	}
	return ctx.apply()
}

// checkInsertable validates a subtree offered for insertion: facade nodes
// only, and no single node too large for any record to hold.
func (s *Store) checkInsertable(n *noderep.Node) error {
	if n == nil {
		return fmt.Errorf("%w: nil node", noderep.ErrBadNode)
	}
	if _, err := s.measure(&noderep.Record{Root: n}); err != nil {
		return err
	}
	// Leave room for record header, a modest type table and the node's
	// own headers when it becomes a record root.
	budget := s.maxRecordSize() - 128
	tooBig := false
	n.Walk(func(x *noderep.Node) bool {
		if x.Kind == noderep.KindProxy || x.Scaffold {
			tooBig = true // callers never hand us scaffolding
			return false
		}
		if x.Kind == noderep.KindLiteral && len(x.Payload) > budget {
			tooBig = true
			return false
		}
		return true
	})
	if tooBig {
		return fmt.Errorf("%w: literal payloads must stay under %d bytes", ErrNodeTooLarge, budget)
	}
	return nil
}

// insertionCandidates enumerates the order-correct physical positions for
// a new logical child at index idx of parent (paper figure 6: the dashed
// arrows into ra, rb and rc).
func (s *Store) insertionCandidates(parent NodeRef, entries []childEntry, idx int) ([]physPos, error) {
	var cands []physPos
	add := func(p physPos) {
		for _, q := range cands {
			if q.rid == p.rid && q.parent == p.parent && q.idx == p.idx {
				return
			}
		}
		cands = append(cands, p)
	}
	switch {
	case len(entries) == 0:
		add(physPos{rid: parent.rid, rec: parent.rec, parent: parent.node, idx: 0})
	case idx == 0:
		right := entries[0]
		add(physPos{rid: right.slot.rid, rec: right.slot.rec, parent: right.slot.parent, idx: right.slot.idx})
		// Before everything in the parent's own record.
		add(physPos{rid: parent.rid, rec: parent.rec, parent: parent.node, idx: 0})
	case idx == len(entries):
		left := entries[idx-1]
		add(physPos{rid: left.slot.rid, rec: left.slot.rec, parent: left.slot.parent, idx: left.slot.idx + 1})
		// After everything in the parent's own record.
		add(physPos{rid: parent.rid, rec: parent.rec, parent: parent.node, idx: len(parent.node.Children)})
	default:
		left, right := entries[idx-1], entries[idx]
		add(physPos{rid: left.slot.rid, rec: left.slot.rec, parent: left.slot.parent, idx: left.slot.idx + 1})
		add(physPos{rid: right.slot.rid, rec: right.slot.rec, parent: right.slot.parent, idx: right.slot.idx})
		if left.topIdx != right.topIdx {
			// The boundary falls between two top-level physical children
			// of the parent record: inserting between them there is also
			// order-correct (record ra in figure 6).
			add(physPos{rid: parent.rid, rec: parent.rec, parent: parent.node, idx: right.topIdx})
		}
	}
	return cands, nil
}

// chooseCandidate picks the insertion position according to the matrix
// policy (§3.3): ∞ prefers the parent's record, 0 places the proxy in
// the parent's record when possible, other picks the candidate whose
// page has the most free space.
func (s *Store) chooseCandidate(cands []physPos, policy Policy, parentRID records.RID) (physPos, error) {
	if len(cands) == 0 {
		return physPos{}, fmt.Errorf("core: no insertion candidates")
	}
	if policy == PolicyCluster || policy == PolicyStandalone {
		for _, c := range cands {
			if c.rid == parentRID {
				return c, nil
			}
		}
	}
	best := cands[0]
	bestFree := -1
	for _, c := range cands {
		p, err := s.rm.PageOf(c.rid)
		if err != nil {
			return physPos{}, err
		}
		free, err := s.rm.PageFreeBytes(p)
		if err != nil {
			return physPos{}, err
		}
		if free > bestFree {
			best, bestFree = c, free
		}
	}
	return best, nil
}

// placeAt inserts node at the physical position cand and runs the growth
// procedure on the affected record.
func (s *Store) placeAt(cand physPos, node *noderep.Node, ctx *opCtx) error {
	if cand.parent == nil || cand.rec == nil {
		return fmt.Errorf("core: internal error: insertion slot without parent aggregate")
	}
	cand.parent.InsertChild(cand.idx, node)
	inserted := []*noderep.Node{node}
	spliced, err := s.spliceRecord(cand, node)
	if err != nil {
		return err
	}
	if spliced {
		ctx.patchProxiesIn(cand.rid, inserted)
		return nil
	}
	return s.afterPlacement(cand.rid, cand.rec, inserted, ctx)
}

// spliceRecord writes one edit of the record at pos.rid — node inserted
// as child pos.idx of pos.parent, or that child removed when node is nil
// — as a splice of the record's stored image: the common case, in which
// the edit needs no new type-table entry and the record stays on its
// page, costs the node's own bytes instead of a re-encode of the record
// (noderep.Splice, records.Manager.Splice). The parsed tree pos.rec must
// already show the edit. It reports false, with nothing written, for
// every other case; the caller then takes the full path (writeRecord, or
// afterPlacement and its move or split).
func (s *Store) spliceRecord(pos physPos, node *noderep.Node) (bool, error) {
	path, ok := s.physPath(pos)
	if !ok {
		return false, nil
	}
	if s.image == nil {
		s.image = make([]byte, 0, s.maxRecordSize())
	}
	img, err := s.rm.ReadInto(pos.rid, s.image)
	if err != nil {
		return false, err
	}
	if node != nil {
		img, ok = s.splice.Insert(img, path, node, s.maxRecordSize())
	} else {
		img, ok = s.splice.Remove(img, path)
	}
	if !ok {
		return false, nil
	}
	if ok, err := s.rm.Splice(pos.rid, img, s.splice.From, s.splice.Fields); !ok || err != nil {
		return false, err
	}
	s.stats.recordsSpliced.Add(1)
	s.wrote(pos.rid, pos.rec)
	return true, nil
}

// physPath returns the physical child indexes that lead from the root of
// pos.rec to child pos.idx of pos.parent, in the store's scratch.
func (s *Store) physPath(pos physPos) ([]int, bool) {
	path := append(s.path[:0], pos.idx)
	n := pos.parent
	for ; n.Parent != nil; n = n.Parent {
		i := n.Parent.ChildIndex(n)
		if i < 0 {
			return nil, false
		}
		path = append(path, i)
	}
	s.path = path
	slices.Reverse(path)
	return path, n == pos.rec.Root
}

// afterPlacement finishes an insertion into an existing record: if the
// record still fits a page it is written back (the record manager moves
// it to a page with more room if needed — figure 5 step 2); otherwise
// the record is split with the new content already in place (§3.2.3:
// "the splitting process operates as if the new node had already been
// inserted").
func (s *Store) afterPlacement(rid records.RID, rec *noderep.Record, inserted []*noderep.Node, ctx *opCtx) error {
	size, err := s.measure(rec)
	if err != nil {
		return err
	}
	if size <= s.maxRecordSize() {
		if err := s.writeMeasured(rid, rec); err != nil {
			return err
		}
		ctx.patchProxiesIn(rid, inserted)
		return nil
	}
	return s.splitRecord(rid, rec, ctx)
}

// storeTreeRecord stores the subtree root as a standalone record with
// the given parent record pointer, splitting the subtree recursively if
// it exceeds the page capacity. It returns the RID of the record that
// represents the subtree's root.
func (s *Store) storeTreeRecord(root *noderep.Node, parentRID records.RID, near pagedev.PageNo, ctx *opCtx) (records.RID, error) {
	rec := &noderep.Record{ParentRID: parentRID, Root: root}
	size, err := s.measure(rec)
	if err != nil {
		return records.NilRID, err
	}
	if size <= s.maxRecordSize() {
		rid, err := s.insertMeasured(rec, near)
		if err != nil {
			return records.NilRID, err
		}
		ctx.patchProxiesIn(rid, []*noderep.Node{root})
		return rid, nil
	}
	// Slice a separator off the subtree's root and recurse: the
	// separator (with proxies to the partition records) becomes the
	// record representing this subtree. separatorWithProgress guarantees
	// shrinkage, so the recursion terminates.
	sep, err := s.separatorWithProgress(root, near, ctx)
	if err != nil {
		return records.NilRID, err
	}
	return s.storeTreeRecord(sep, parentRID, near, ctx)
}
