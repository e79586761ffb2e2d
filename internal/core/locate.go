package core

import (
	"fmt"
	"math"
	"slices"

	"natix/internal/noderep"
	"natix/internal/records"
)

// The write path reads the records it passes where they lie, in their
// pinned frames (records.View), hopping headers as noderep.Splice does:
// an edit builds no tree and no node table for a record it only passes
// through or splices. Its address of a node is a write position — the
// record, the page the record's body lies on and the node's physical
// child-index path from the record's root — which holds nothing of the
// page, so it stays valid once the views are done, up to the next write
// of the record. Views are all done before the edit writes anything, but
// for the one an insert keeps for its splice, whose latch the edit takes
// exclusively in the same visit (records.Manager.EditView).

// wnode is a located node: where it lies and, while the view it was read
// in is held, its span there.
type wnode struct {
	rid  records.RID
	body records.RID // where the record's body lies
	path []int       // physical child indexes from the record's root
	span noderep.Span
}

// slot is a physical child slot: child idx of the aggregate at path in
// record rid, whose body lies at body. A slot of a scaffold record's root
// (path nil) that is the root's only child is solo: removing its child
// empties the record, which up, the record's parent, points to.
type slot struct {
	rid, body records.RID
	path      []int
	idx       int
	solo      bool
	up        records.RID
}

// same reports whether a and b are one slot.
func (a *slot) same(b *slot) bool {
	return a.rid == b.rid && a.idx == b.idx && slices.Equal(a.path, b.path)
}

// childEntry is one logical child of an aggregate: the record holding it
// (its own, when a proxy points to it), the physical slot that holds it
// (for the root of another record, the slot of the proxy pointing at it)
// and the span there, and the index of the top-level physical child of
// the aggregate it was reached through.
type childEntry struct {
	rid    records.RID
	span   noderep.Span
	slot   slot
	topIdx int
}

// corrupt is the error for a record image the write path cannot read.
func corrupt(rid records.RID) error {
	return fmt.Errorf("record %s: %w", rid, noderep.ErrCorruptRecord) //natix:vet-ignore corrupt-record path
}

// view returns the store's view at depth d of the record chain a read
// holds: the located node's record at 0, the records behind the proxies
// it passes from 1 on. Each view is allocated once, so a pointer to it
// stays valid while deeper ones are added.
func (s *Store) view(d int) *records.View {
	for len(s.views) <= d {
		s.views = append(s.views, new(records.View))
	}
	return s.views[d]
}

// locate resolves a logical path from the root record into *n, leaving
// the record n lies in held in view 0 for the caller to end. Each step
// stops at the child it wants (childAt): the siblings behind it — and the
// records their proxies point to — are not read. On error nothing is
// held.
func (s *Store) locate(root records.RID, path Path, n *wnode) error {
	v := s.view(0)
	if err := s.viewRoot(root, v, &n.span); err != nil {
		return err
	}
	n.rid, n.path = root, s.path[:0]
	for depth, idx := range path {
		at, k, err := s.childAt(0, n, idx)
		if err == nil && at < 0 {
			err = fmt.Errorf("%w: %s (index %d of %d at depth %d)", ErrBadPath, path, idx, k, depth)
		}
		if err != nil {
			v.Done()
			return err
		}
		// The records between the node's parent and its own were passed
		// through: only the node's is kept, in view 0.
		for d := 0; d < at; d++ {
			s.views[d].Done()
		}
		s.views[0], s.views[at] = s.views[at], s.views[0]
		v = s.views[0]
	}
	s.path, n.body = n.path, v.Loc()
	return nil
}

// childAt moves n, an aggregate of the record held in view d, to its
// logical child idx and returns the depth of the view that child's
// record is held in: the views from d to it are held, the chain of
// records the child was reached through. It returns -1 when n has no such
// child, with n as it was and nothing held past view d; k is then the
// number of logical children n does have. The records behind the proxies
// it passes are read as they are reached, and a scaffolding root's
// children counted in place of the proxy.
//
//natix:noalloc
func (s *Store) childAt(d int, n *wnode, idx int) (at, k int, err error) {
	if idx < 0 {
		idx = math.MaxInt // no such child: count them all
	}
	agg := n.span
	switch {
	case agg.Kind != noderep.KindAggregate:
		return -1, 0, nil
	case agg.Fused:
		// A text-only element: its one child is its text.
		if idx != 0 {
			return -1, 1, nil
		}
		n.path, n.span = append(n.path, 0), agg.Text()
		return d, 0, nil
	}
	img := s.views[d].Body()
	for p, i := agg.Start, 0; ; i++ {
		// Pass the plain children in front of the wanted one.
		q, m, proxyEnd := noderep.Skip(img, p, &agg, idx-k)
		if p, i, k = q, i+m, k+m; p < 0 {
			return -1, k, corrupt(n.rid)
		}
		if p >= agg.End {
			return -1, k, nil
		}
		if proxyEnd == 0 {
			// Skip stopped in front of the wanted child: k == idx.
			var c noderep.Span
			if !noderep.ChildSpan(img, p, &agg, &c) {
				return -1, k, corrupt(n.rid)
			}
			n.path, n.span = append(n.path, i), c
			return d, k, nil
		}
		p = proxyEnd
		rid, path, w := n.rid, n.path, s.view(d+1)
		n.rid = records.DecodeRID(img[p-records.RIDSize : p])
		if err := s.viewRoot(n.rid, w, &n.span); err != nil {
			n.rid, n.span = rid, agg
			return -1, k, err
		}
		// The child is the root of the record behind the proxy, or a child
		// of its scaffolding root: its path starts at that record's root.
		n.path = path[len(path):]
		at := d + 1
		if n.span.Scaffold && n.span.Kind == noderep.KindAggregate {
			var j int
			at, j, err = s.childAt(d+1, n, idx-k)
			k += j
		} else if k != idx {
			at = -1
			k++
		}
		if at < 0 || err != nil {
			w.Done()
			n.rid, n.span, n.path = rid, agg, path
			if err != nil {
				return -1, k, err
			}
			continue
		}
		n.path = append(path[:0], n.path...)
		return at, k, nil
	}
}

// childEntries lists the logical children of n, the node located in the
// record held in view 0 (none unless it is an aggregate), in document
// order, resolving proxies and splicing scaffolding aggregates
// transparently, and returns how many physical children n has in its own
// record. The list is built in the store's scratch: it is valid until the
// next call.
func (s *Store) childEntries(n *wnode) ([]childEntry, int, error) {
	s.entries = s.entries[:0]
	switch {
	case n.span.Kind != noderep.KindAggregate:
		return s.entries, 0, nil // a literal or a proxy has no children
	case n.span.Fused:
		s.entries = append(s.entries, childEntry{
			rid: n.rid, span: n.span.Text(),
			slot: slot{rid: n.rid, body: n.body, path: n.path},
		})
		return s.entries, 1, nil
	}
	kids, err := s.collectEntries(0, n.rid, n.span, n.path, -1)
	return s.entries, kids, err
}

// collectEntries appends to the store's entries the logical children of
// the aggregate agg at path of record rid, held in view d, and returns
// how many physical children agg has. top overrides the top-level index
// when recursing into scaffold records (-1 means "use the local index").
func (s *Store) collectEntries(d int, rid records.RID, agg noderep.Span, path []int, top int) (int, error) {
	img, body := s.views[d].Body(), s.views[d].Loc()
	var c, r noderep.Span
	i := 0
	for p := agg.Start; p < agg.End; i++ {
		if !noderep.ChildSpan(img, p, &agg, &c) {
			return i, corrupt(rid)
		}
		p = c.End
		topIdx := top
		if topIdx < 0 {
			topIdx = i
		}
		e := childEntry{rid: rid, span: c, slot: slot{rid: rid, body: body, path: path, idx: i}, topIdx: topIdx}
		if c.Kind == noderep.KindProxy {
			e.rid = c.Target(img)
			w := s.view(d + 1)
			if err := s.viewRoot(e.rid, w, &r); err != nil {
				return i, err
			}
			if r.Scaffold && r.Kind == noderep.KindAggregate {
				// Scaffolding aggregate: splice its children here.
				_, err := s.collectEntries(d+1, e.rid, r, nil, topIdx)
				w.Done()
				if err != nil {
					return i, err
				}
				continue
			}
			w.Done()
		}
		s.entries = append(s.entries, e)
	}
	if top >= 0 && i == 1 && len(s.entries) > 0 {
		if last := &s.entries[len(s.entries)-1].slot; last.rid == rid {
			// The scaffold root's only child: its removal empties the record.
			last.solo = true
			last.up, _ = noderep.ImageParentRID(img)
		}
	}
	return i, nil
}

// proxySlot finds the proxy to target in record rid: the slot that holds
// it, and whether it is the only child of a scaffold root. It decodes the
// record: only the removal of a scaffold record's last child, which
// deletes the record, asks for it.
func (s *Store) proxySlot(rid, target records.RID) (slot, error) {
	rec, body, err := s.loadRecord(rid)
	if err != nil {
		return slot{}, err
	}
	pp, idx, err := findProxySlot(rec.Root, target)
	if err != nil {
		return slot{}, fmt.Errorf("record %s: %w", rid, err)
	}
	sl := slot{rid: rid, body: body, idx: idx, up: rec.ParentRID}
	sl.solo = pp == rec.Root && pp.Scaffold && len(pp.Children) == 1
	for n := pp; n.Parent != nil; n = n.Parent {
		sl.path = append(sl.path, n.Parent.ChildIndex(n))
	}
	slices.Reverse(sl.path)
	return sl, nil
}

// viewRoot views record rid into w and reads its root into r. On error
// nothing is held.
func (s *Store) viewRoot(rid records.RID, w *records.View, r *noderep.Span) error {
	if err := s.rm.View(rid, w); err != nil {
		return fmt.Errorf("resolving proxy to %s: %w", rid, err) //natix:vet-ignore I/O error path
	}
	if !noderep.RootSpan(w.Body(), r) {
		w.Done()
		return corrupt(rid)
	}
	return nil
}
