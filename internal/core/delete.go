package core

import (
	"fmt"

	"natix/internal/noderep"
	"natix/internal/records"
)

// Delete removes the logical node at path together with its subtree.
// Records that only held parts of the removed subtree are freed, and
// scaffolding that becomes empty is cleaned up. With MergeOnDelete set,
// a shrunken child record may be folded back into its parent record
// ("clustered nodes can become records of their own or again be merged
// into clusters", §1).
func (t *Tree) Delete(path Path) error {
	if len(path) == 0 {
		return ErrIsRoot
	}
	s := t.store
	parentRef, err := t.Locate(path[:len(path)-1])
	if err != nil {
		return err
	}
	entries, err := s.childEntries(parentRef)
	if err != nil {
		return err
	}
	idx := path[len(path)-1]
	if idx < 0 || idx >= len(entries) {
		return fmt.Errorf("%w: %s (index %d of %d)", ErrBadPath, path, idx, len(entries))
	}
	e := entries[idx]
	ctx := newOpCtx(t)

	// Free all records hanging below the removed subtree.
	victim := e.ref.node
	if e.ref.rid != e.slot.rid {
		// The child is the standalone root of its own record: the whole
		// record tree goes.
		if err := s.deleteRecordTree(e.ref.rid); err != nil {
			return err
		}
		ctx.drop(e.ref.rid)
	} else {
		// Embedded: free record trees referenced from inside the subtree.
		var firstErr error
		victim.Walk(func(n *noderep.Node) bool {
			if n.Kind == noderep.KindProxy {
				if err := s.deleteRecordTree(n.Target); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			return true
		})
		if firstErr != nil {
			return firstErr
		}
	}

	// Remove the physical child (the node itself, or the proxy to it).
	if err := s.removePhysical(e.slot, ctx); err != nil {
		return err
	}
	if err := ctx.apply(); err != nil {
		return err
	}
	if s.cfg.MergeOnDelete {
		return t.tryMerge(e.slot.rid)
	}
	return nil
}

// removePhysical deletes the child at the given slot and rewrites (or
// cleans up) the containing record.
func (s *Store) removePhysical(slot physPos, ctx *opCtx) error {
	rec := slot.rec
	slot.parent.RemoveChild(slot.idx)

	// A scaffolding record whose root lost all children carries no
	// information: delete it and remove its proxy from its parent.
	if len(rec.Root.Children) == 0 && rec.Root.Scaffold && !rec.ParentRID.IsNil() {
		parentRID := rec.ParentRID
		if err := s.deleteRecord(slot.rid); err != nil {
			return err
		}
		ctx.drop(slot.rid)
		parentRec, err := s.loadRecord(parentRID)
		if err != nil {
			return err
		}
		pp, pi, err := findProxySlot(parentRec.Root, slot.rid)
		if err != nil {
			return err
		}
		return s.removePhysical(physPos{rid: parentRID, rec: parentRec, parent: pp, idx: pi}, ctx)
	}
	if ok, err := s.spliceRecord(slot, nil); ok || err != nil {
		return err
	}
	return s.writeRecord(slot.rid, rec)
}

// tryMerge folds the record rid into its parent record if their combined
// content fits comfortably on a page.
func (t *Tree) tryMerge(rid records.RID) error {
	s := t.store
	rec, err := s.loadRecord(rid)
	if err != nil {
		// The record may already be gone (scaffold cleanup); not an error.
		return nil
	}
	if rec.ParentRID.IsNil() {
		return nil
	}
	parentRID := rec.ParentRID
	parentRec, err := s.loadRecord(parentRID)
	if err != nil {
		return err
	}
	// Conservative bound: merged record must stay under half capacity so
	// the merge does not immediately bounce back into a split.
	combined := noderep.EncodedSize(parentRec) + rec.Root.TotalSize()
	if combined > s.maxRecordSize()/2 {
		return nil
	}
	pp, pi, err := findProxySlot(parentRec.Root, rid)
	if err != nil {
		return err
	}
	ctx := newOpCtx(t)
	pp.RemoveChild(pi)
	var spliced []*noderep.Node
	if rec.Root.Scaffold && rec.Root.Kind == noderep.KindAggregate {
		spliced = rec.Root.Children
	} else {
		spliced = []*noderep.Node{rec.Root}
	}
	for i := len(spliced) - 1; i >= 0; i-- {
		pp.InsertChild(pi, spliced[i])
	}
	if err := s.deleteRecord(rid); err != nil {
		return err
	}
	ctx.drop(rid)
	if err := s.afterPlacement(parentRID, parentRec, spliced, ctx); err != nil {
		return err
	}
	return ctx.apply()
}
