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
	var parent wnode
	if err := s.locate(t.rootRID, path[:len(path)-1], &parent); err != nil {
		return err
	}
	v := s.views[0]
	e := &s.entries[0]
	idx := path[len(path)-1]
	found, total, err := s.entryAt(&parent, idx, e)
	if err == nil && !found {
		err = fmt.Errorf("%w: %s (index %d of %d)", ErrBadPath, path, idx, total)
	}
	if err != nil {
		v.Done()
		return err
	}
	ctx := newOpCtx(t)

	// Free all records hanging below the removed subtree.
	if e.rid != e.slot.rid {
		// The child is the standalone root of its own record: the whole
		// record tree goes.
		v.Done()
		if err := s.deleteRecordTree(e.rid); err != nil {
			return err
		}
		ctx.drop(e.rid)
	} else {
		// Embedded: free record trees referenced from inside the subtree,
		// found by walking its bytes.
		targets, err := s.proxiesBelow(v, parent.rid, e)
		if err != nil {
			return err
		}
		var firstErr error
		for _, target := range targets {
			if err := s.deleteRecordTree(target); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if firstErr != nil {
			return firstErr
		}
	}

	// Every proxy on the way to a child of a scaffolding record counts one
	// less; then the physical child goes (the node itself, or the proxy to
	// it).
	if err := s.patchCounts(e.slot.chain, -1); err != nil {
		return err
	}
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

// proxiesBelow lists the targets of the proxies inside the embedded child
// e, in pre-order, into the store's scratch, and ends v, the view of
// record held. e lies in held when it is a child of the parent's own
// record; a child of a scaffold record is read again, unchanged since
// entryAt read it.
func (s *Store) proxiesBelow(v *records.View, held records.RID, e *childEntry) ([]records.RID, error) {
	if e.slot.rid != held {
		v.Done()
		if err := s.rm.View(e.slot.rid, v); err != nil {
			return nil, err
		}
	}
	var ok bool
	s.targets, ok = noderep.AppendProxies(v.Body(), &e.span, s.targets[:0])
	v.Done()
	if !ok {
		return nil, corrupt(e.slot.rid)
	}
	return s.targets, nil
}

// removePhysical deletes the child at the given slot and rewrites (or
// cleans up) the containing record.
func (s *Store) removePhysical(sl slot, ctx *opCtx) error {
	// A scaffolding record whose root loses its only child carries no
	// information: delete it and remove its proxy from its parent.
	if sl.solo && !sl.up.IsNil() {
		if err := s.deleteRecord(sl.rid); err != nil {
			return err
		}
		ctx.drop(sl.rid)
		up, err := s.proxySlot(sl.up, sl.rid)
		if err != nil {
			return err
		}
		return s.removePhysical(up, ctx)
	}
	rec, err := s.edit(sl, nil)
	if err != nil || rec == nil {
		return err
	}
	parent, err := nodeAt(rec, sl.path)
	if err != nil || sl.idx >= len(parent.Children) {
		return fmt.Errorf("record %s: no physical child %d at %v", sl.rid, sl.idx, sl.path)
	}
	parent.RemoveChild(sl.idx)
	return s.writeRecord(sl.rid, rec)
}

// tryMerge folds the record rid into its parent record if their combined
// content fits comfortably on a page.
func (t *Tree) tryMerge(rid records.RID) error {
	s := t.store
	rec, _, err := s.loadRecord(rid)
	if err != nil {
		// The record may already be gone (scaffold cleanup); not an error.
		return nil
	}
	if rec.ParentRID.IsNil() {
		return nil
	}
	parentRID := rec.ParentRID
	parentRec, parentBody, err := s.loadRecord(parentRID)
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
	if err := s.afterPlacement(parentRID, parentBody.Page, parentRec, spliced, ctx); err != nil {
		return err
	}
	return ctx.apply()
}
