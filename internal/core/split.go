package core

import (
	"fmt"

	"natix/internal/noderep"
	"natix/internal/pagedev"
	"natix/internal/records"
)

// splitRecord splits an oversized record in place in the tree (figure 5
// step 2): the record's subtree is partitioned, the partitions move to
// new records, and the separator replaces the proxy in the parent record
// (recursively growing the parent). For the root record a new root
// record holding just the separator is created. near is the page the
// record's body lies on: the partitions are allocated near it.
func (s *Store) splitRecord(rid records.RID, near pagedev.PageNo, rec *noderep.Record, ctx *opCtx) error {
	s.stats.splits.Add(1)
	sep, err := s.separatorWithProgress(rec.Root, near, ctx)
	if err != nil {
		return err
	}

	if rec.ParentRID.IsNil() {
		// Root record: "If the old record had no parent record, a new
		// root record for the tree is created which contains just the
		// separator."
		if err := s.deleteRecord(rid); err != nil {
			return err
		}
		ctx.drop(rid)
		newRoot, err := s.storeTreeRecord(sep, records.NilRID, near, ctx)
		if err != nil {
			return err
		}
		ctx.t.rootRID = newRoot
		return nil
	}

	// Replace the proxy in the parent with the separator. If the
	// separator's root is a scaffolding aggregate "it is disregarded,
	// and the children of the separator root are inserted in the parent
	// record instead" (§3.2.2, second special case).
	parentRID := rec.ParentRID
	parentRec, parentBody, err := s.loadRecord(parentRID)
	if err != nil {
		return fmt.Errorf("loading parent record %s of %s: %w", parentRID, rid, err)
	}
	pParent, pIdx, err := findProxySlot(parentRec.Root, rid)
	if err != nil {
		return fmt.Errorf("record %s: %w", parentRID, err)
	}
	pParent.RemoveChild(pIdx)
	var spliced []*noderep.Node
	if sep.Scaffold && sep.Kind == noderep.KindAggregate {
		spliced = append(spliced, sep.Children...)
	} else {
		spliced = append(spliced, sep)
	}
	for i := len(spliced) - 1; i >= 0; i-- {
		pParent.InsertChild(pIdx, spliced[i])
	}
	if err := s.deleteRecord(rid); err != nil {
		return err
	}
	ctx.drop(rid)
	return s.afterPlacement(parentRID, parentBody.Page, parentRec, spliced, ctx)
}

// findProxySlot locates the proxy pointing at target within a record
// tree, returning its physical parent and child index.
func findProxySlot(root *noderep.Node, target records.RID) (*noderep.Node, int, error) {
	var parent *noderep.Node
	idx := -1
	root.Walk(func(n *noderep.Node) bool {
		if n.Kind == noderep.KindProxy && n.Target == target {
			parent = n.Parent
			idx = n.Parent.ChildIndex(n)
			return false
		}
		return true
	})
	if parent == nil || idx < 0 {
		return nil, 0, fmt.Errorf("core: no proxy to %s found", target)
	}
	return parent, idx, nil
}

// sepPath is the result of the separator descent: the path of nodes from
// the subtree root to d's parent, the child index descended through at
// each path node, and d's index within the last path node.
type sepPath struct {
	nodes []*noderep.Node // nodes[0] = root, nodes[len-1] = parent of d
	steps []int           // steps[i] = child index of nodes[i+1] in nodes[i]
	dIdx  int             // index of d within nodes[len-1]
}

// findSeparatorPath performs the descent of §3.2.2: starting at the
// subtree's root, descend into the child whose subtree contains the
// configured split target of the record, stopping at a leaf or when the
// subtree about to be descended into is smaller than the split
// tolerance. Split-matrix ∞ entries force continued descent so the
// clustered child stays with its parent in the separator.
func (s *Store) findSeparatorPath(root *noderep.Node, relax bool) (sepPath, error) {
	if !relax {
		if p, ok := s.descend(root, false); ok {
			return p, nil
		}
	}
	if p, ok := s.descend(root, true); ok {
		return p, nil
	}
	return sepPath{}, fmt.Errorf("%w: root has no splittable children", ErrCannotSplit)
}

func (s *Store) descend(root *noderep.Node, ignoreMatrix bool) (sepPath, bool) {
	var p sepPath
	cur := root
	target := int(s.cfg.SplitTarget * float64(root.ContentSize()))
	for {
		if cur.Kind != noderep.KindAggregate || len(cur.Children) == 0 {
			return sepPath{}, false // cannot descend; caller fails or retries
		}
		// Find the child whose extent contains the target offset.
		chosen := len(cur.Children) - 1
		acc := 0
		for i, c := range cur.Children {
			sz := c.TotalSize()
			if target < acc+sz {
				chosen = i
				break
			}
			acc += sz
		}
		c := cur.Children[chosen]
		clustered := !ignoreMatrix &&
			s.cfg.Matrix.Get(cur.Label, c.Label) == PolicyCluster
		descendable := c.Kind == noderep.KindAggregate && len(c.Children) > 0
		if clustered {
			// The child must stay with cur; putting it on the separator
			// path keeps them together. If it cannot be descended into,
			// look for a nearby non-clustered sibling to serve as d.
			if !descendable {
				if alt := s.altSeparatorChild(cur, chosen, ignoreMatrix); alt >= 0 {
					p.nodes = append(p.nodes, cur)
					p.dIdx = alt
					return p, true
				}
				return sepPath{}, false
			}
		} else if c.TotalSize() < s.cfg.SplitTolerance || !descendable {
			// "It stops when it reaches a leaf, or when the subtree size
			// in which it is about to descend is smaller than allowed by
			// the split tolerance parameter."
			p.nodes = append(p.nodes, cur)
			p.dIdx = chosen
			return p, true
		}
		p.nodes = append(p.nodes, cur)
		p.steps = append(p.steps, chosen)
		target -= acc + noderep.HeaderSize(c, c.ContentSize())
		if target < 0 {
			target = 0
		}
		cur = c
	}
}

// altSeparatorChild finds a non-clustered child of cur near index from,
// searching right then left. Returns -1 if every child is clustered.
func (s *Store) altSeparatorChild(cur *noderep.Node, from int, ignoreMatrix bool) int {
	ok := func(i int) bool {
		return ignoreMatrix || s.cfg.Matrix.Get(cur.Label, cur.Children[i].Label) != PolicyCluster
	}
	for i := from + 1; i < len(cur.Children); i++ {
		if ok(i) {
			return i
		}
	}
	for i := from - 1; i >= 0; i-- {
		if ok(i) {
			return i
		}
	}
	return -1
}

// buildSeparator partitions the subtree rooted at root around the
// separator path (§3.2.2), stores the left/right partitions as new
// records (grouping sibling partition roots under scaffolding
// aggregates, figure 8), and returns the separator tree with proxies in
// place. Partition records are allocated near the given page.
//
// The returned separator reuses the path nodes themselves (their child
// lists are rebuilt), so root's identity is preserved.
func (s *Store) buildSeparator(root *noderep.Node, near pagedev.PageNo, ctx *opCtx, relax bool) (*noderep.Node, error) {
	p, err := s.findSeparatorPath(root, relax)
	if err != nil {
		return nil, err
	}
	k := len(p.nodes) - 1
	for i := k; i >= 0; i-- {
		node := p.nodes[i]
		var boundary int // children [0,boundary) left, [boundary,...) right
		var pathChild *noderep.Node
		if i == k {
			boundary = p.dIdx // d itself belongs to the right partition
			if k == 0 && boundary == 0 && len(node.Children) >= 2 {
				// Degenerate descent: d is the root's first child (e.g. a
				// large leaf holding the size midpoint), so the left
				// partition would be empty and the right would repack all
				// children at the same size — the oversize-partition
				// recursion could never terminate. Splitting off the
				// first child keeps every partition a strict subset.
				boundary = 1
			}
		} else {
			boundary = p.steps[i]
			pathChild = p.nodes[i+1]
		}
		kids := node.Children
		left := kids[:boundary]
		var right []*noderep.Node
		if pathChild != nil {
			right = kids[boundary+1:]
		} else {
			right = kids[boundary:]
		}
		newKids, err := s.partitionSide(node, left, near, ctx, relax)
		if err != nil {
			return nil, err
		}
		if pathChild != nil {
			newKids = append(newKids, pathChild)
		}
		rightKids, err := s.partitionSide(node, right, near, ctx, relax)
		if err != nil {
			return nil, err
		}
		newKids = append(newKids, rightKids...)
		node.Children = node.Children[:0]
		for _, c := range newKids {
			node.AppendChild(c)
		}
	}
	return p.nodes[0], nil
}

// partitionSide moves one side's children into partition records and
// returns the nodes that remain on the separator level: proxies to the
// partition records, plus any children the split matrix pins to the
// separator node (∞ entries: "all nodes x ... are considered part of the
// separator ... and thus moved to the parent"). Runs of partitioned
// children between pinned ones become separate records so document order
// is preserved.
func (s *Store) partitionSide(parent *noderep.Node, side []*noderep.Node, near pagedev.PageNo, ctx *opCtx, relax bool) ([]*noderep.Node, error) {
	var out []*noderep.Node
	var run []*noderep.Node
	flush := func() error {
		if len(run) == 0 {
			return nil
		}
		reps, err := s.storePartition(run, near, ctx)
		if err != nil {
			return err
		}
		out = append(out, reps...)
		run = nil
		return nil
	}
	for _, c := range side {
		if !relax && s.cfg.Matrix.Get(parent.Label, c.Label) == PolicyCluster {
			if err := flush(); err != nil {
				return nil, err
			}
			out = append(out, c)
			continue
		}
		run = append(run, c)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return out, nil
}

// storePartition stores one group of sibling subtrees as a partition
// record and returns the separator-side representation: normally a
// single proxy. The two special cases of §3.2.2 apply: a group that is
// just one proxy is inlined rather than wrapped in a record, and a
// single subtree needs no scaffolding aggregate.
func (s *Store) storePartition(group []*noderep.Node, near pagedev.PageNo, ctx *opCtx) ([]*noderep.Node, error) {
	if len(group) == 1 && group[0].Kind == noderep.KindProxy {
		// "If a partition record would consist of just one proxy, the
		// record is not created and the proxy is inserted directly into
		// the separator."
		return group, nil
	}
	var root *noderep.Node
	if len(group) == 1 {
		root = group[0]
		root.Parent = nil
	} else {
		root = noderep.NewScaffoldAggregate()
		for _, g := range group {
			root.AppendChild(g)
		}
	}
	// The partition record's parent pointer is patched by the opCtx once
	// the separator's final record is known. Its proxy counts the group's
	// logical children, which a split of the record, should it not fit,
	// keeps.
	count := noderep.LogicalCount(root)
	rid, err := s.storeTreeRecord(root, records.NilRID, near, ctx)
	if err != nil {
		return nil, err
	}
	p := noderep.NewProxy(rid)
	p.Count = count
	return []*noderep.Node{p}, nil
}

// separatorWithProgress builds a separator that is guaranteed to be
// strictly smaller than the subtree it came from. Split-matrix ∞ entries
// can pin so much onto the separator that nothing moves out (for
// example, a pinned child whose only remaining content is a single,
// inlined proxy); children are only "kept as long as possible in the
// same record" (§3.3), so when the pinned pass makes no progress the
// partitioning is redone ignoring the matrix.
func (s *Store) separatorWithProgress(root *noderep.Node, near pagedev.PageNo, ctx *opCtx) (*noderep.Node, error) {
	recSize := func(n *noderep.Node) int {
		return noderep.EncodedSize(&noderep.Record{Root: n})
	}
	before := recSize(root)
	sep, err := s.buildSeparator(root, near, ctx, false)
	if err != nil {
		return nil, err
	}
	if recSize(sep) < before {
		return sep, nil
	}
	sep, err = s.buildSeparator(sep, near, ctx, true)
	if err != nil {
		return nil, err
	}
	if recSize(sep) >= before {
		return nil, fmt.Errorf("%w: separator cannot shrink below %d bytes", ErrCannotSplit, before)
	}
	return sep, nil
}
