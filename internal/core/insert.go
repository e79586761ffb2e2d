package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
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

// apply writes all pending parent-pointer fixups, in RID order, so the
// operation logs them in an order of its own and not the map's.
func (ctx *opCtx) apply() error {
	if len(ctx.patches) == 0 {
		return nil
	}
	s := ctx.t.store
	children := slices.SortedFunc(maps.Keys(ctx.patches), func(a, b records.RID) int {
		return cmp.Or(cmp.Compare(a.Page, b.Page), cmp.Compare(a.Slot, b.Slot))
	})
	for _, child := range children {
		if err := s.patchParentRID(child, ctx.patches[child]); err != nil {
			return fmt.Errorf("patching parent of %s: %w", child, err)
		}
	}
	return nil
}

// patchProxiesIn registers parent fixups for every proxy inside the
// given subtrees, which have just been placed in record rid.
func (ctx *opCtx) patchProxiesIn(rid records.RID, subtrees ...*noderep.Node) {
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
	var parent wnode
	if err := s.locate(t.rootRID, parentPath, &parent); err != nil {
		return err
	}
	// The parent's record stays held for the edit, which most often
	// splices it.
	s.held = parent.rid
	defer s.unhold()
	if parent.span.Kind != noderep.KindAggregate {
		return fmt.Errorf("%w: cannot insert under %s at %s", ErrNotAggregate, parent.span.Kind, parentPath)
	}
	total, kids, err := s.countChildren(&parent)
	if err != nil {
		return err
	}
	if idx == -1 {
		idx = total
	}
	if idx < 0 || idx > total {
		if err := s.checkCounts(0, parent.rid, &parent.span); err != nil {
			return err
		}
		return fmt.Errorf("%w: insert index %d of %d at %s", ErrBadPath, idx, total, parentPath)
	}
	cands, err := s.insertionCandidates(&parent, total, kids, idx)
	if err != nil {
		return err
	}
	ctx := newOpCtx(t)
	policy := s.cfg.Matrix.Get(parent.span.Label, n.Label)
	cand, err := s.chooseCandidate(cands, policy, parent.rid)
	if err != nil {
		return err
	}
	if policy == PolicyStandalone {
		// "x is stored as a standalone node and a proxy is inserted
		// into y" (§3.3). Place the proxy in the parent's record when a
		// position there is order-correct.
		s.unhold()
		childRID, err := s.storeTreeRecord(n, cand.rid, cand.body.Page, ctx)
		if err != nil {
			return err
		}
		n = noderep.NewProxy(childRID)
	}
	if len(cand.chain) > 0 {
		// A scaffolding record below the parent's takes the child: every
		// proxy on the way to it counts one more.
		s.unhold()
		if err := s.patchCounts(cand.chain, 1); err != nil {
			return err
		}
	}
	if err := s.placeAt(cand, n, ctx); err != nil {
		return err
	}
	return ctx.apply()
}

// patchCounts adds delta to the count of every proxy of chain, the
// proxies an edit below an aggregate's own record passes (slot.chain),
// each in place: four bytes of a record the edit does not otherwise
// write, in the operation's bracket. They are patched before the edit:
// a split the edit causes may replace the last of them by a separator,
// whose proxies it counts itself.
func (s *Store) patchCounts(chain []countRef, delta int) error {
	var b [noderep.CountSize]byte
	for _, c := range chain {
		binary.LittleEndian.PutUint32(b[:], uint32(c.count+delta))
		s.stats.countPatches.Add(1)
		s.cache.remove(c.rid)
		if err := s.rm.Patch(c.rid, c.off, b[:]); err != nil {
			return fmt.Errorf("record %s: count: %w", c.rid, err)
		}
	}
	return nil
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
// a new logical child at index idx of parent, which has total logical
// children and kids physical children in its own record (paper figure 6:
// the dashed arrows into ra, rb and rc): in front of the child now at
// idx, behind the one at idx-1 — the two read through entryAt, no other
// child — and between them in the parent's own record. The list is the
// store's scratch.
func (s *Store) insertionCandidates(parent *wnode, total, kids, idx int) ([]slot, error) {
	s.cands = s.cands[:0]
	left, right := &s.entries[0], &s.entries[1]
	for i, e := range []*childEntry{left, right} {
		if at := idx - 1 + i; at >= 0 && at < total {
			if _, _, err := s.entryAt(parent, at, e); err != nil {
				return nil, err
			}
		}
	}
	add := func(p slot) {
		for i := range s.cands {
			if s.cands[i].same(&p) {
				return
			}
		}
		s.cands = append(s.cands, p)
	}
	in := func(i int) slot { return slot{rid: parent.rid, body: parent.body, path: parent.path, idx: i} }
	after := left.slot
	after.idx++
	switch {
	case total == 0:
		add(in(0))
	case idx == 0:
		add(right.slot)
		// Before everything in the parent's own record.
		add(in(0))
	case idx == total:
		add(after)
		// After everything in the parent's own record.
		add(in(kids))
	default:
		add(after)
		add(right.slot)
		if left.topIdx != right.topIdx {
			// The boundary falls between two top-level physical children
			// of the parent record: inserting between them there is also
			// order-correct (record ra in figure 6).
			add(in(right.topIdx))
		}
	}
	return s.cands, nil
}

// chooseCandidate picks the insertion position according to the matrix
// policy (§3.3): ∞ prefers the parent's record, 0 places the proxy in
// the parent's record when possible, other picks the candidate whose
// page has the most free space — the first, when they lie on one page.
func (s *Store) chooseCandidate(cands []slot, policy Policy, parentRID records.RID) (slot, error) {
	if len(cands) == 0 {
		return slot{}, fmt.Errorf("core: no insertion candidates")
	}
	if policy == PolicyCluster || policy == PolicyStandalone {
		for _, c := range cands {
			if c.rid == parentRID {
				return c, nil
			}
		}
	}
	best := cands[0]
	if !slices.ContainsFunc(cands, func(c slot) bool { return c.body.Page != best.body.Page }) {
		return best, nil // one page: nothing to compare
	}
	bestFree := -1
	for _, c := range cands {
		free, err := s.rm.PageFreeBytes(c.body.Page)
		if err != nil {
			return slot{}, err
		}
		if free > bestFree {
			best, bestFree = c, free
		}
	}
	return best, nil
}

// placeAt inserts node at the physical position cand and runs the growth
// procedure on the affected record.
func (s *Store) placeAt(cand slot, node *noderep.Node, ctx *opCtx) error {
	rec, err := s.edit(cand, node)
	if err != nil || rec == nil {
		if err == nil {
			ctx.patchProxiesIn(cand.rid, node)
		}
		return err
	}
	parent, err := nodeAt(rec, cand.path)
	if err != nil {
		return fmt.Errorf("record %s: %w", cand.rid, err)
	}
	parent.InsertChild(cand.idx, node)
	return s.afterPlacement(cand.rid, cand.body.Page, rec, parent.Children[cand.idx:cand.idx+1], ctx)
}

// edit writes one edit of the record at sl.rid — node inserted as child
// sl.idx of the aggregate at sl.path, or that child removed when node is
// nil — reading and writing the record's image, never its tree. The
// common case, in which the edit needs no new type-table entry and the
// record stays on its page, is a splice of the stored image: it costs the
// node's own bytes instead of a re-encode of the record
// (noderep.Splice), and the record's page one visit — the image is
// copied out of its page and spliced back into it inside the same
// pinned, latched frame (records.Manager.Edit). A spliced image its page
// cannot hold moves whole to another (records.Manager.Update), still
// without a decode: the splice's limit is a record's. Otherwise — the
// splice was refused (a new type-table entry, the removal of a type's
// last node, a fuse or unfuse that is not one contiguous change, a record
// past the limit) — it writes nothing and returns the stored record
// decoded, privately. The caller then edits that tree, re-encodes it and
// drops it (writeRecord, or afterPlacement and its split).
func (s *Store) edit(sl slot, node *noderep.Node) (rec *noderep.Record, err error) {
	e := &s.editor
	e.path = append(append(e.path[:0], sl.path...), sl.idx)
	e.node, e.limit = node, s.maxRecordSize()
	var ok bool
	if sl.rid == s.held {
		s.held = records.NilRID
		ok, err = s.rm.EditView(s.views[0], e)
	} else {
		s.unhold()
		ok, err = s.rm.Edit(sl.rid, e)
	}
	if ok || err != nil {
		if ok {
			s.stats.recordsSpliced.Add(1)
			s.cache.remove(sl.rid)
		}
		return nil, err
	}
	if e.spliced {
		// The page cannot hold the spliced image, which fits a record: it
		// moves whole (records.Manager.Update), its tree never decoded.
		return nil, s.rewrite(sl.rid, e.img)
	}
	s.stats.recordsDecoded.Add(1)
	if rec, err = noderep.Decode(e.img); err != nil {
		return nil, fmt.Errorf("record %s: %w", sl.rid, err)
	}
	return rec, nil
}

// unhold ends the view of the record an insert holds for its edit, if
// it still does.
func (s *Store) unhold() {
	if !s.held.IsNil() {
		s.held = records.NilRID
		s.views[0].Done()
	}
}

// nodeEdit is one node edit as a records.Editor: node inserted at the
// physical path, or the node there removed when node is nil
// (noderep.Splice). When it edits nothing img is the stored image, as
// the editor was handed it; when the record manager could not write the
// edit it is the edited one, and spliced is set. Both lie in the record
// manager's buffer, valid until its next edit.
type nodeEdit struct {
	sp      noderep.Splice
	path    []int
	node    *noderep.Node
	limit   int
	img     []byte
	spliced bool
}

// Edit implements records.Editor.
func (e *nodeEdit) Edit(body []byte) ([]byte, int, []int, bool) {
	var out []byte
	if e.node != nil {
		out, e.spliced = e.sp.Insert(body, e.path, e.node, e.limit)
	} else {
		out, e.spliced = e.sp.Remove(body, e.path)
	}
	if e.img = body; e.spliced {
		e.img = out
	}
	return out, e.sp.From, e.sp.Fields, e.spliced
}

// nodeAt returns the node at the physical path of a decoded record.
func nodeAt(rec *noderep.Record, path []int) (*noderep.Node, error) {
	n := rec.Root
	for _, i := range path {
		if i < 0 || i >= len(n.Children) {
			return nil, fmt.Errorf("%w: no physical child %d", noderep.ErrCorruptRecord, i)
		}
		n = n.Children[i]
	}
	return n, nil
}

// afterPlacement finishes an insertion into an existing record: if the
// record still fits a page it is written back (the record manager moves
// it to a page with more room if needed — figure 5 step 2); otherwise
// the record is split with the new content already in place (§3.2.3:
// "the splitting process operates as if the new node had already been
// inserted").
func (s *Store) afterPlacement(rid records.RID, near pagedev.PageNo, rec *noderep.Record, inserted []*noderep.Node, ctx *opCtx) error {
	size, err := s.measure(rec)
	if err != nil {
		return err
	}
	if size <= s.maxRecordSize() {
		if err := s.writeMeasured(rid, rec); err != nil {
			return err
		}
		ctx.patchProxiesIn(rid, inserted...)
		return nil
	}
	return s.splitRecord(rid, near, rec, ctx)
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
		ctx.patchProxiesIn(rid, root)
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
