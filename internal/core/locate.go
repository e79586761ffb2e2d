package core

import (
	"errors"
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
// empties the record, which up, the record's parent, points to. chain is
// the proxies an edit of the slot passes below the aggregate it serves,
// whose counts the edit patches.
type slot struct {
	rid, body records.RID
	path      []int
	idx       int
	solo      bool
	up        records.RID
	chain     []countRef
}

// same reports whether a and b are one slot.
func (a *slot) same(b *slot) bool {
	return a.rid == b.rid && a.idx == b.idx && slices.Equal(a.path, b.path)
}

// countRef is the count of one proxy: the record holding the proxy, the
// count's offset in the record's body and its value.
type countRef struct {
	rid   records.RID
	off   int
	count int
}

// childEntry is one logical child of an aggregate: the record holding it
// (its own, when a proxy points to it), the physical slot that holds it
// (for the root of another record, the slot of the proxy pointing at it)
// and the span there, and the index of the top-level physical child of
// the aggregate it was reached through. The slot's chain is the proxies
// from the aggregate's record down to the slot's, each a scaffolding
// record's.
type childEntry struct {
	rid    records.RID
	span   noderep.Span
	slot   slot
	topIdx int
}

// maxScaffoldDepth bounds the scaffolding records a locate enters below
// one aggregate. Each level multiplies the children a record holds, so
// no document nests them half as deep; a chain that does is a cycle.
const maxScaffoldDepth = 64

// corrupt is the error for a record image the write path cannot read.
func corrupt(rid records.RID) error {
	return fmt.Errorf("record %s: %w", rid, noderep.ErrCorruptRecord) //natix:vet-ignore corrupt-record path
}

// corruptRef is the error for a reference read out of record rid's image
// — a proxy's target, a parent RID — that err says names no readable
// record: rid's image is corrupt, whatever the record manager found (an
// I/O error it found stays in the chain).
func corruptRef(rid records.RID, err error) error {
	if errors.Is(err, noderep.ErrCorruptRecord) {
		return err
	}
	return fmt.Errorf("record %s: %w: %w", rid, noderep.ErrCorruptRecord, err) //natix:vet-ignore corrupt-record path
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
// number of logical children n does have. The proxies in front of the
// child are passed by their counts (noderep.Skip): only the records on
// the way to it are read (enter). Before it reports a child missing it
// checks every count it passed (checkCounts).
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
	p, k, i, proxyEnd := noderep.Skip(img, agg.Start, &agg, idx)
	if p < 0 {
		return -1, k, corrupt(n.rid)
	}
	if p >= agg.End {
		return -1, k, s.checkCounts(d, n.rid, &agg)
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
	// The proxy there holds the child: it is the root of the record behind
	// it, or a child of that record's scaffolding root. Its path starts at
	// that record's root.
	rid, path := n.rid, n.path
	n.rid = records.DecodeRID(img[proxyEnd-noderep.ProxyContentSize : proxyEnd])
	if err := s.enter(d+1, rid, img, proxyEnd, n.rid, &n.span); err != nil {
		n.rid, n.span = rid, agg
		return -1, k, err
	}
	n.path = path[len(path):]
	at = d + 1
	if n.span.Scaffold && n.span.Kind == noderep.KindAggregate {
		if at, _, err = s.childAt(d+1, n, idx-k); at < 0 && err == nil {
			err = corrupt(n.rid) // its count, checked, holds the child
		}
		if err != nil {
			s.views[d+1].Done()
			n.rid, n.span, n.path = rid, agg, path
			return -1, k, err
		}
	}
	n.path = append(path[:0], n.path...)
	return at, idx, nil
}

// enter views target, the record the proxy of record holder whose content
// ends at proxyEnd of img points to, into view d and reads its root into
// r, checking the proxy's count against it: one for a record rooted in a
// facade node, for a scaffolding root the sum over its children, a proxy
// there by its count — which is all the record's own bytes say. A count
// that disagrees is a corrupt record, and nothing is held.
func (s *Store) enter(d int, holder records.RID, img []byte, proxyEnd int, target records.RID, r *noderep.Span) error {
	if d > maxScaffoldDepth {
		return corrupt(holder) // a cycle: no document nests scaffolding so deep
	}
	w := s.view(d)
	if err := s.viewRoot(target, w, r); err != nil {
		return corruptRef(holder, err)
	}
	want, count := noderep.ProxyCount(img, proxyEnd), 1
	if r.Scaffold && r.Kind == noderep.KindAggregate {
		var p int
		if p, count, _, _ = noderep.Skip(w.Body(), r.Start, r, math.MaxInt); p < 0 {
			w.Done()
			return corrupt(target)
		}
	}
	if count != want {
		w.Done()
		return fmt.Errorf("record %s: its proxy to %s counts %d logical children, the record holds %d: %w", //natix:vet-ignore corrupt-record path
			holder, target, want, count, noderep.ErrCorruptRecord)
	}
	return nil
}

// checkCounts checks the count of every proxy among the children of agg,
// an aggregate of record rid held in view d, against its target, and of
// every proxy below a scaffolding target in turn (enter): the slow count
// a locate makes before it reports a child missing, so that a count it
// passed by arithmetic cannot make it report a child that exists missing.
func (s *Store) checkCounts(d int, rid records.RID, agg *noderep.Span) error {
	if !agg.Children() {
		return nil // a text-only element's content is its text
	}
	img := s.views[d].Body()
	var c, r noderep.Span
	for p := agg.Start; p < agg.End; p = c.End {
		if !noderep.ChildSpan(img, p, agg, &c) {
			return corrupt(rid)
		}
		if c.Kind != noderep.KindProxy {
			continue
		}
		target := c.Target(img)
		if err := s.enter(d+1, rid, img, c.End, target, &r); err != nil {
			return err
		}
		var err error
		if r.Scaffold && r.Kind == noderep.KindAggregate {
			err = s.checkCounts(d+1, target, &r)
		}
		s.views[d+1].Done()
		if err != nil {
			return err
		}
	}
	return nil
}

// countChildren returns the number of logical children of n, the node
// located in the record held in view 0 (none unless it is an aggregate),
// and of physical children it has in its own record: the proxies among
// them counted by their counts, no record behind them read.
func (s *Store) countChildren(n *wnode) (total, kids int, err error) {
	switch {
	case n.span.Kind != noderep.KindAggregate:
		return 0, 0, nil // a literal or a proxy has no children
	case n.span.Fused:
		return 1, 1, nil
	}
	p, total, kids, _ := noderep.Skip(s.views[0].Body(), n.span.Start, &n.span, math.MaxInt)
	if p < 0 {
		return 0, 0, corrupt(n.rid)
	}
	return total, kids, nil
}

// entryAt resolves logical child idx of n, the aggregate located in the
// record held in view 0, into e, reading only the records on the way to
// it: the proxies in front of it are passed by their counts and the
// records behind the proxies that hold it entered (enter). The proxies
// entered are e.slot.chain, in e's own scratch. It reports false when n
// has no such child, with total the number of logical children it has.
// Every view it takes is ended; view 0 stays held.
func (s *Store) entryAt(n *wnode, idx int, e *childEntry) (found bool, total int, err error) {
	chain := e.slot.chain[:0]
	switch {
	case n.span.Kind != noderep.KindAggregate:
		return false, 0, nil // a literal or a proxy has no children
	case n.span.Fused:
		*e = childEntry{rid: n.rid, span: n.span.Text(), slot: slot{rid: n.rid, body: n.body, path: n.path, chain: chain}}
		return idx == 0, 1, nil
	case idx < 0:
		total, _, err = s.countChildren(n)
		return false, total, err
	}
	d, rid, body, path, agg, top := 0, n.rid, n.body, n.path, n.span, -1
	defer func() {
		for ; d > 0; d-- {
			s.views[d].Done()
		}
	}()
	for {
		img := s.views[d].Body()
		p, k, i, proxyEnd := noderep.Skip(img, agg.Start, &agg, idx)
		if p < 0 {
			return false, 0, corrupt(rid)
		}
		if p >= agg.End {
			if d > 0 {
				return false, 0, corrupt(rid) // its count, checked, holds the child
			}
			return false, k, s.checkCounts(0, rid, &agg)
		}
		if top < 0 {
			top = i
		}
		var c noderep.Span
		if !noderep.ChildSpan(img, p, &agg, &c) {
			return false, 0, corrupt(rid)
		}
		*e = childEntry{rid: rid, span: c, topIdx: top, slot: slot{rid: rid, body: body, path: path, idx: i, chain: chain}}
		if d > 0 && c.Pos == agg.Start && c.End == agg.End {
			// The scaffold root's only child: its removal empties the record.
			e.slot.solo = true
			e.slot.up, _ = noderep.ImageParentRID(img)
		}
		if proxyEnd == 0 {
			return true, 0, nil
		}
		var r noderep.Span
		target := c.Target(img)
		if err := s.enter(d+1, rid, img, proxyEnd, target, &r); err != nil {
			return false, 0, err
		}
		d++
		if !r.Scaffold || r.Kind != noderep.KindAggregate {
			e.rid = target
			return true, 0, nil
		}
		chain = append(chain, countRef{rid: rid, off: noderep.CountOffset(proxyEnd), count: noderep.ProxyCount(img, proxyEnd)})
		rid, body, path, agg, idx = target, s.views[d].Loc(), nil, r, idx-k
	}
}

// proxySlot finds the proxy to target in record rid: the slot that holds
// it, and whether it is the only child of a scaffold root. It decodes the
// record: only the removal of a scaffold record's last child, which
// deletes the record, asks for it.
func (s *Store) proxySlot(rid, target records.RID) (slot, error) {
	rec, body, err := s.loadRecord(rid)
	if err != nil {
		return slot{}, corruptRef(target, err)
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
