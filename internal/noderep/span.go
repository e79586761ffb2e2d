package noderep

import (
	"natix/internal/dict"
	"natix/internal/records"
)

// Reading a stored image where it lies, for the write path. A node edit
// locates its place by reading headers one at a time in the record's
// page, as Splice does: no node table (OpenImage) and no tree (Decode)
// is built for a record the edit only passes through or splices.

// A Span is one node of a stored image read in place: where its header
// starts, where its content lies and its type. The root's header is the
// record's standalone header. A fused element's content is its text's
// payload.
type Span struct {
	Pos, Start, End int
	Kind            Kind
	Label           dict.LabelID
	Scaffold        bool
	Fused           bool
}

// RootSpan reads the standalone root of img into n, reporting false for
// an image too short for its type table and standalone header, of
// another format version, or citing a type outside its table.
func RootSpan(img []byte, n *Span) bool {
	if len(img) < recHeaderSize+StandaloneHeaderSize || img[0] != FormatVersion {
		return false
	}
	tt := u16(img[2:])
	root := recHeaderSize + ttEntrySize*tt
	if root+StandaloneHeaderSize > len(img) {
		return false
	}
	ti := int(img[root])
	if ti >= tt {
		return false
	}
	n.Pos, n.Start, n.End, n.Fused = root, root+StandaloneHeaderSize, len(img), img[1]&rootFusedFlag != 0
	n.setType(img, ti)
	return true
}

// ChildSpan reads into n the embedded node whose header is at pos of img,
// inside the content of the aggregate parent, reporting false for a
// header or content that crosses parent's end or one readHeader refuses.
// n.End is where the node's next sibling starts.
func ChildSpan(img []byte, pos int, parent *Span, n *Span) bool {
	var h header
	if !readHeader(img, img[1]&wideFlag != 0, u16(img[2:]), pos, parent.End, &h) {
		return false
	}
	n.Pos, n.Start, n.End, n.Fused = pos, h.start, h.end(), h.fused
	n.setType(img, h.ti)
	return true
}

// Skip passes up to n logical children of parent from the header at pos
// of img — a plain node counting one, a proxy its count, by arithmetic,
// without reading its target — and stops in front of the node that
// holds the next one. It returns where it stopped (parent's end, past
// the last child), how many logical children and how many nodes it
// passed and, when the node there is a proxy, the offset behind it (0
// otherwise): the walk over the siblings in front of a child whose spans
// the reader does not need, with hop's checks only. It returns -1 for a
// node, the proxy it stops at included, that crosses parent's end.
// Skip(img, p.Start, p, math.MaxInt) counts parent's logical children
// and its children.
func Skip(img []byte, pos int, parent *Span, n int) (at, passed, nodes, proxyEnd int) {
	tt, end := u16(img[2:]), parent.End
	if img[1]&wideFlag == 0 {
		return skip(img, tt, pos, end, n, true)
	}
	var h header
	for ; pos < end; pos, nodes = h.end(), nodes+1 {
		if !readHeader(img, true, tt, pos, end, &h) {
			return -1, passed, nodes, 0
		}
		c := 1
		if h.ti < 0 {
			if c = proxyCount(img, h.end()); c > n-passed {
				return pos, passed, nodes, h.end()
			}
		} else if passed == n {
			break
		}
		passed += c
	}
	return pos, passed, nodes, 0
}

// ProxyCount returns the count of the proxy of img whose content ends at
// end (Skip's proxyEnd, a proxy Span's End).
func ProxyCount(img []byte, end int) int { return proxyCount(img, end) }

// CountOffset returns the offset of the count of the proxy whose content
// ends at end, for an in-place patch.
func CountOffset(end int) int { return end - CountSize }

func (n *Span) setType(img []byte, ti int) {
	if ti < 0 {
		n.Kind, n.Label, n.Scaffold = KindProxy, dict.Scaffold, true
		return
	}
	e := img[recHeaderSize+ttEntrySize*ti:]
	n.Kind, n.Label, n.Scaffold = Kind(e[0]&kindMask), dict.LabelID(u16(e[1:])), e[0]&scaffoldFlag != 0
}

// Children reports whether n's content is its children's headers: an
// aggregate that is not fused.
func (n *Span) Children() bool { return n.Kind == KindAggregate && !n.Fused }

// Text is the text of a fused element n: a #text literal spanning n's
// content, at n's position.
func (n *Span) Text() Span {
	return Span{Pos: n.Pos, Start: n.Start, End: n.End, Kind: KindLiteral, Label: dict.Text}
}

// Target returns the record the proxy n of img points to, NilRID when n
// is not a proxy.
func (n *Span) Target(img []byte) records.RID {
	if n.Kind != KindProxy || n.End-n.Start != ProxyContentSize {
		return records.NilRID
	}
	return records.DecodeRID(img[n.Start : n.Start+records.RIDSize])
}

// ImageParentRID returns the standalone parent RID of img, a format 5
// image RootSpan reads, and its offset (ParentRIDOffset).
func ImageParentRID(img []byte) (records.RID, int) {
	off := ParentRIDOffset(u16(img[2:]))
	return records.DecodeRID(img[off : off+records.RIDSize]), off
}

// AppendProxies appends to out the targets of the proxies in the subtree
// of n, a node of img — n itself when it is a proxy — in pre-order, and
// reports false, with out as it got that far, on a header it cannot read.
func AppendProxies(img []byte, n *Span, out []records.RID) ([]records.RID, bool) {
	switch {
	case n.Kind == KindProxy:
		if rid := n.Target(img); !rid.IsNil() {
			return append(out, rid), true
		}
		return out, false
	case !n.Children():
		return out, true
	}
	wide, tt := img[1]&wideFlag != 0, u16(img[2:])
	var h header
	for p := n.Start; p < n.End; {
		if !readHeader(img, wide, tt, p, n.End, &h) {
			return out, false
		}
		switch p = h.end(); {
		case h.aggregate():
			p = h.start
		case h.ti < 0:
			out = append(out, records.DecodeRID(img[h.start:h.start+records.RIDSize]))
		}
	}
	return out, true
}
