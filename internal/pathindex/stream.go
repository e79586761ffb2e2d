package pathindex

// Single-pass index construction. Build re-walks the stored tree after
// an import — a second full traversal of everything the loader just
// wrote. StreamBuilder instead rides along with the bulk loader: the
// loader reports each logical node as it parses it (Enter/Literal/Exit,
// which fixes pre-order sequence numbers, subtree sizes and summary
// paths) and each emitted record as it is stored (OnRecord, which fixes
// the physical half of every posting: record RID and facade index). The
// stored tree is never read back.
//
// Every element is written down once, at Enter, in one flat table in
// document order; Exit and OnRecord fill in the rest of its row, which
// they find through the slot number Enter left in the element's node
// (noderep.Node.Cookie). Records arrive bottom-up, but the table is in
// document order from the start, so Finish only has to deal its rows
// out to the per-label lists — nothing is sorted and nothing is keyed
// by node.

import (
	"fmt"
	"math"
	"unsafe"

	"natix/internal/dict"
	"natix/internal/noderep"
	"natix/internal/records"
)

// streamElem is one row of the element table. post.Seq and post.Path
// are known at Enter, post.Size at Exit, post.RID and post.Local when
// the record holding the element is emitted.
type streamElem struct {
	post  Posting
	label dict.LabelID
	state uint8
}

const (
	elemOpen   uint8 = iota // entered, not yet exited
	elemClosed              // exited, waiting for its record
	elemStored              // posting complete
)

// StreamScratch is the memory a StreamBuilder works in: the element
// table and three small stacks. It holds nothing of the finished index,
// so one scratch can serve import after import; the zero value is ready
// to use. Whoever owns it must not hand it to two builders at once.
type StreamScratch struct {
	elems  []streamElem
	open   []uint32        // table slots of the still-open elements, outermost first
	walk   []*noderep.Node // OnRecord's pre-order stack
	counts []uint32        // elements per label, indexed by label
}

// Bytes returns the memory the scratch retains.
func (sc *StreamScratch) Bytes() int {
	return cap(sc.elems)*int(unsafe.Sizeof(streamElem{})) + cap(sc.walk)*int(unsafe.Sizeof(sc.walk[0])) +
		(cap(sc.open)+cap(sc.counts))*4
}

// StreamBuilder accumulates one document's index during a bulk load.
// Drive it strictly in document order; it is not safe for concurrent
// use.
type StreamBuilder struct {
	idx    *Index
	sc     *StreamScratch
	seq    uint32
	stored int // rows whose posting is complete

	// One-entry InternPath memo: document order visits runs of same-label
	// siblings (rows, lines, items), which all share one summary path.
	lastParent PathID
	lastLabel  dict.LabelID
	lastPath   PathID
	lastOK     bool
}

// Reset empties the scratch, keeping its capacity. An owner parking the
// scratch between imports calls it so the parked scratch references
// none of the last import's nodes.
func (sc *StreamScratch) Reset() {
	sc.elems = sc.elems[:0]
	sc.open = sc.open[:0]
	clear(sc.walk[:cap(sc.walk)])
	sc.walk = sc.walk[:0]
	clear(sc.counts)
}

// NewStreamBuilder returns an empty builder working in sc, which it
// resets. The scratch is the builder's until Finish returns (or the
// builder is dropped).
func NewStreamBuilder(sc *StreamScratch) *StreamBuilder {
	sc.Reset()
	return &StreamBuilder{idx: NewIndex(), sc: sc}
}

// Enter records an element (or attribute aggregate) opening. n is the
// physical node the loader built for it; the builder marks it with the
// element's table slot, which identifies the element until the record
// holding it is emitted.
func (b *StreamBuilder) Enter(n *noderep.Node) {
	sc := b.sc
	parent := NilPath
	if len(sc.open) > 0 {
		parent = sc.elems[sc.open[len(sc.open)-1]].post.Path
	} else {
		b.idx.root = n.Label
	}
	path := b.lastPath
	if !b.lastOK || parent != b.lastParent || n.Label != b.lastLabel {
		path = b.idx.InternPath(parent, n.Label)
		b.lastParent, b.lastLabel, b.lastPath, b.lastOK = parent, n.Label, path, true
	}
	b.idx.paths[path].Count++
	if int(n.Label) >= len(sc.counts) {
		sc.counts = append(sc.counts, make([]uint32, int(n.Label)+1-len(sc.counts))...)
	}
	sc.counts[n.Label]++
	slot := uint32(len(sc.elems))
	sc.elems = append(sc.elems, streamElem{post: Posting{Seq: b.seq, Path: path}, label: n.Label})
	sc.open = append(sc.open, slot)
	n.Cookie = slot + 1
	b.seq++
}

// Literal records a text leaf: literals occupy a sequence number (so
// subtree sizes define containment) but get no posting.
func (b *StreamBuilder) Literal() {
	b.seq++
}

// Exit records the closing of n, the innermost open element; its
// subtree size is now known.
func (b *StreamBuilder) Exit(n *noderep.Node) error {
	sc := b.sc
	if len(sc.open) == 0 {
		return fmt.Errorf("pathindex: Exit of unentered node")
	}
	slot := sc.open[len(sc.open)-1]
	if n.Cookie != slot+1 {
		return fmt.Errorf("pathindex: Exit of a node that is not the innermost open element")
	}
	sc.open = sc.open[:len(sc.open)-1]
	e := &sc.elems[slot]
	e.post.Size = b.seq - e.post.Seq - 1
	e.state = elemClosed
	return nil
}

// OnRecord is the bulk builder's record sink: enumerating the emitted
// record's facade nodes in pre-order (the enumeration
// core.FacadeWalker resolves) yields each element's facade index,
// completing its posting.
func (b *StreamBuilder) OnRecord(rid records.RID, root *noderep.Node) error {
	sc := b.sc
	local := 0
	stack := append(sc.walk[:0], root)
	var err error
	for len(stack) > 0 && err == nil {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		switch {
		case n.Kind == noderep.KindLiteral:
			local++
		case n.Kind == noderep.KindAggregate && !n.Scaffold:
			err = b.complete(n, rid, local)
			local++
		}
		for i := len(n.Children) - 1; i >= 0; i-- {
			stack = append(stack, n.Children[i])
		}
	}
	sc.walk = stack[:0]
	return err
}

// complete fills in the physical half of the posting of the element
// behind n.
func (b *StreamBuilder) complete(n *noderep.Node, rid records.RID, local int) error {
	slot := int(n.Cookie) - 1
	if slot < 0 || slot >= len(b.sc.elems) || b.sc.elems[slot].state != elemClosed || b.sc.elems[slot].label != n.Label {
		return fmt.Errorf("pathindex: record %s holds an unregistered element", rid)
	}
	if local > math.MaxUint16 {
		return fmt.Errorf("pathindex: facade index %d exceeds uint16 in record %s", local, rid)
	}
	e := &b.sc.elems[slot]
	e.post.RID, e.post.Local = rid, uint16(local)
	e.state = elemStored
	b.stored++
	return nil
}

// Finish seals the index: the table's rows are dealt out, in table
// order, to per-label lists carved from one allocation of exactly the
// table's length. The builder's scratch is free for reuse afterwards.
func (b *StreamBuilder) Finish() (*Index, error) {
	sc := b.sc
	if len(sc.open) != 0 {
		return nil, fmt.Errorf("pathindex: %d elements still open", len(sc.open))
	}
	if b.stored != len(sc.elems) {
		return nil, fmt.Errorf("pathindex: %d elements never reached a record", len(sc.elems)-b.stored)
	}
	b.idx.nodes = b.seq
	all := make([]Posting, len(sc.elems))
	off := uint32(0)
	for label, n := range sc.counts {
		if n == 0 {
			continue
		}
		b.idx.postings[dict.LabelID(label)] = all[off : off+n : off+n]
		sc.counts[label] = off // from here on: where the label's next row goes
		off += n
	}
	for i := range sc.elems {
		e := &sc.elems[i]
		all[sc.counts[e.label]] = e.post
		sc.counts[e.label]++
	}
	return b.idx, nil
}
