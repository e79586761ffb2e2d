package pathindex

import (
	"fmt"
	"math"

	"natix/internal/core"
	"natix/internal/records"
)

// Build constructs the index for the tree rooted at root by one logical
// pre-order walk over the record images (core.Store.ReadRoot,
// ReadChildren), decoding nothing. Sequence numbers are assigned to every
// logical node (elements and text literals alike) so subtree sizes define
// containment, but only elements — non-literal facade nodes, including
// the "@name" attribute aggregates — get postings and summary paths.
//
// The resulting postings address nodes by (record RID, facade index);
// they stay valid until the document is mutated, at which point the
// index must be rebuilt.
func Build(trees *core.Store, root records.RID) (*Index, error) {
	rootRef, err := trees.ReadRoot(root)
	if err != nil {
		return nil, err
	}
	if rootRef.IsLiteral() {
		return nil, fmt.Errorf("pathindex: root of %s is a literal", root)
	}
	b := &builder{trees: trees, idx: NewIndex(), local: make(map[records.RID]int)}
	b.idx.root = rootRef.Label()
	if err := b.walk(&rootRef, b.idx.InternPath(NilPath, rootRef.Label())); err != nil {
		return nil, err
	}
	b.idx.nodes = b.seq
	return b.idx, nil
}

type builder struct {
	trees *core.Store
	idx   *Index
	local map[records.RID]int // facade nodes the walk has reached, per record
	kids  []core.ReadRef      // the children of every node on the walk's path, stacked
	seq   uint32              // next pre-order sequence number
}

// facade returns the facade index of ref and counts it: the logical
// pre-order restricted to one record is that record's facade order.
func (b *builder) facade(ref *core.ReadRef) int {
	n := b.local[ref.RID()]
	b.local[ref.RID()] = n + 1
	return n
}

// walk indexes the element at ref (whose summary path is path) and
// recurses over its logical children.
func (b *builder) walk(ref *core.ReadRef, path PathID) error {
	seq := b.seq
	b.seq++
	local := b.facade(ref)
	// Records are page-bounded (≤32K), so a facade index cannot reach
	// 64K through any valid store; guard against wrapping anyway.
	if local > math.MaxUint16 {
		return fmt.Errorf("pathindex: facade index %d exceeds uint16 in record %s", local, ref.RID())
	}
	label := ref.Label()
	b.idx.paths[path].Count++
	b.idx.postings[label] = append(b.idx.postings[label], Posting{
		Seq: seq, RID: ref.RID(), Local: uint16(local), Path: path,
	})
	slot := len(b.idx.postings[label]) - 1

	start := len(b.kids)
	kids, err := b.trees.ReadChildren(ref, b.kids)
	if err != nil {
		return err
	}
	b.kids = kids
	for i := start; i < len(kids); i++ {
		k := b.kids[i] // a copy: deeper levels append to b.kids
		if k.IsLiteral() {
			b.facade(&k)
			b.seq++
			continue
		}
		if err := b.walk(&k, b.idx.InternPath(path, k.Label())); err != nil {
			return err
		}
	}
	b.kids = b.kids[:start]
	// The subtree size is known only now; the posting list may have been
	// reallocated by deeper appends, so index through the map again.
	b.idx.postings[label][slot].Size = b.seq - seq - 1
	return nil
}
