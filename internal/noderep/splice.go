package noderep

import (
	"encoding/binary"

	"natix/internal/records"
)

// Splice edits a stored record image in place of a re-encode: adding
// one child subtree costs the subtree's own bytes, the move of the bytes
// behind it and the content sizes of its ancestors; removing one costs
// the move, the sizes and one flat pass over the record's headers
// (typesSurvive) — no Measure, no Emit, no tree walk. The image keeps
// its type table as stored (Decode does not care about the table's
// order), so an edit that would need a new entry, or leave one unused,
// is not spliceable and takes the full encode. Neither is an image of an
// older format version: its first edit re-encodes it in the current one.
//
// A text into an empty element, the commonest edit of all, fuses the
// two (see the package comment) and is still a splice: the bytes
// inserted are the payload alone, and the mark goes on the element's own
// size field, which is among the fields the splice patches anyway.
// Removing the text of a text-only element is the same backwards. Any
// other edit that fuses or unfuses a pair — a second child into a
// text-only element, the removal of the last sibling of a text — moves
// the text's header as well, which is not one contiguous insert or
// removal, and is not spliceable.
//
// A Splice is reusable; the zero value is ready.
type Splice struct {
	// From and Fields describe the last successful edit: the returned
	// image differs from the one passed in from byte From on, and before
	// that only in the two-byte fields at the offsets in Fields — the
	// ancestors' size fields, and for an edit that fuses or unfuses the
	// record root the record header's first two bytes (the flags).
	From   int
	Fields []int
}

// u16 and putU16 read and write the little-endian header fields.
func u16[B ~[]byte | ~string](b B) int {
	_ = b[1]
	return int(b[0]) | int(b[1])<<8
}

func putU16(b []byte, v int) { binary.LittleEndian.PutUint16(b, uint16(v)) }

// sizeAt returns the content size in the embedded header at p, without
// the fused mark.
func sizeAt(img []byte, p int) int { return u16(img[p+2:]) &^ fusedMark }

// tableFlags returns the kind flags of type-table entry ti of img.
func tableFlags(img []byte, ti int) byte { return img[recHeaderSize+ttEntrySize*ti] }

// tableIs reports whether type-table entry ti of img is k.
func tableIs(img []byte, ti int, k typeKey) bool {
	p := recHeaderSize + ttEntrySize*ti
	return img[p] == k.kindFlags && u16(img[p+1:]) == int(k.label) && img[p+3] == byte(k.litType)
}

// nextHeader is one step of a flat pass over embedded headers: from the
// header at p, of table type ti, to the header that follows it in the
// image — its first child's when it is an aggregate with children's
// headers for content (not a fused one, whose content is a payload),
// else the one behind its content.
func nextHeader(img []byte, p, ti int) int {
	size := u16(img[p+2:])
	if Kind(tableFlags(img, ti)&kindMask) == KindAggregate && size&fusedMark == 0 {
		return p + EmbeddedHeaderSize
	}
	return p + EmbeddedHeaderSize + size&^fusedMark
}

// editPoint is where a path leads: child idx of an aggregate of table
// type ti whose content is img[start:end), the child at byte pos. When
// the aggregate is a fused element its content is its text's payload and
// the only child there is to name is that text (idx 0, pos == start).
type editPoint struct {
	pos, start, end int
	ti              int
	fused           bool
}

// facade reports whether the aggregate of the edit point is one an edit
// can fuse with a text.
func (ep editPoint) facade(img []byte) bool { return tableFlags(img, ep.ti)&scaffoldFlag == 0 }

// locate header-hops img along path — the child indexes from the record
// root down to the edit point — to child path[len-1] of the aggregate
// the rest of the path leads to. The offsets of the size fields of the
// embedded aggregates on the way, that aggregate's last, are left in
// sp.Fields. It reads nothing outside img, whatever img holds.
func (sp *Splice) locate(img []byte, path []int) (ep editPoint, ok bool) {
	sp.Fields = sp.Fields[:0]
	if len(path) == 0 || len(img) < recHeaderSize+StandaloneHeaderSize || img[0] != FormatVersion {
		return ep, false
	}
	tt := u16(img[2:])
	root := recHeaderSize + ttEntrySize*tt
	if root+StandaloneHeaderSize > len(img) {
		return ep, false
	}
	ep = editPoint{ti: u16(img[root:]), start: root + StandaloneHeaderSize, end: len(img), fused: img[1]&rootFusedFlag != 0}
	for depth, idx := range path {
		last := depth == len(path)-1
		if ep.ti >= tt || Kind(tableFlags(img, ep.ti)&kindMask) != KindAggregate || idx < 0 {
			return ep, false
		}
		pos := ep.start
		if ep.fused {
			if !last || idx != 0 {
				return ep, false
			}
		} else {
			for ; idx > 0; idx-- {
				if pos+EmbeddedHeaderSize > ep.end {
					return ep, false
				}
				pos += EmbeddedHeaderSize + sizeAt(img, pos)
			}
		}
		if pos > ep.end {
			return ep, false
		}
		if last {
			ep.pos = pos
			break
		}
		if pos+EmbeddedHeaderSize > ep.end {
			return ep, false
		}
		size := u16(img[pos+2:])
		cs := size &^ fusedMark
		if pos+EmbeddedHeaderSize+cs > ep.end {
			return ep, false
		}
		sp.Fields = append(sp.Fields, pos+2)
		ep = editPoint{ti: u16(img[pos:]), start: pos + EmbeddedHeaderSize, end: pos + EmbeddedHeaderSize + cs, fused: size != cs}
	}
	return ep, true
}

// setFused sets or clears the fused mark of the aggregate the last locate
// led to: on its size field, the last of sp.Fields, or for the record
// root in the flags byte, whose two-byte field joins sp.Fields.
func (sp *Splice) setFused(img []byte, depth int, fused bool) {
	if depth == 1 {
		img[1] &^= rootFusedFlag
		if fused {
			img[1] |= rootFusedFlag
		}
		sp.Fields = append(sp.Fields, 0)
		return
	}
	f := sp.Fields[len(sp.Fields)-1]
	size := u16(img[f:]) &^ fusedMark
	if fused {
		size |= fusedMark
	}
	putU16(img[f:], size)
}

// Insert returns img with the subtree n added as child path[len-1] of
// the aggregate at path[:len-1], or false when that is not a splice: a
// node type missing from img's type table, a record past limit bytes or
// past 32 KB (no 15-bit content size in it can then overflow), a path
// that does not resolve, a child beside the text of a fused element, an
// image of an older format version. img is consumed either way — the
// result reuses its backing array when that has room for limit bytes —
// so the caller passes a copy of the stored image, and n must be
// well-formed (Validate).
func (sp *Splice) Insert(img []byte, path []int, n *Node, limit int) ([]byte, bool) {
	ep, ok := sp.locate(img, path)
	if !ok || ep.fused {
		return nil, false
	}
	// A text into an empty element fuses: its payload is all that goes in.
	fuse := ep.start == ep.end && ep.facade(img) && nodeTypeKey(n) == textKey
	pos, old, delta := ep.pos, len(img), n.TotalSize()
	if fuse {
		delta = len(n.Payload)
	}
	size := old + delta
	if size > limit || size > maxContentSize {
		return nil, false
	}
	if cap(img) < size {
		img = append(make([]byte, 0, size), img...)
	}
	img = img[:size]
	copy(img[pos+delta:], img[pos:old])
	if fuse {
		copy(img[pos:], n.Payload)
	} else if end, ok := emitEmbedded(img, pos, n); !ok || end != pos+delta {
		return nil, false
	}
	for _, f := range sp.Fields {
		putU16(img[f:], u16(img[f:])+delta)
	}
	if fuse {
		sp.setFused(img, len(path), true)
	}
	sp.From = pos
	return img, true
}

// Remove returns img without child path[len-1] of the aggregate at
// path[:len-1] (the child's whole subtree goes), or false when that is
// not a splice: the subtree holds the last node of some type, so a
// re-encode would drop the type-table entry, the child's only sibling is
// a text a re-encode would fuse with the aggregate, or the path does not
// resolve. img is consumed either way.
func (sp *Splice) Remove(img []byte, path []int) ([]byte, bool) {
	ep, ok := sp.locate(img, path)
	if !ok {
		return nil, false
	}
	pos, del := ep.pos, ep.end-ep.start
	if !ep.fused {
		// (The text of a fused element has no header and cites no type:
		// its payload, all of the content, goes and nothing else changes.)
		if pos+EmbeddedHeaderSize > ep.end {
			return nil, false
		}
		del = EmbeddedHeaderSize + sizeAt(img, pos)
		if pos+del > ep.end || leavesLoneText(img, ep, del) || !typesSurvive(img, pos, pos+del) {
			return nil, false
		}
	}
	size := len(img) - del
	copy(img[pos:], img[pos+del:])
	img = img[:size]
	for _, f := range sp.Fields {
		putU16(img[f:], u16(img[f:])-del)
	}
	if ep.fused {
		sp.setFused(img, len(path), false)
	}
	sp.From = pos
	return img, true
}

// leavesLoneText reports whether removing the del bytes of the child at
// ep.pos leaves the aggregate a single child that is a text it would be
// fused with.
func leavesLoneText(img []byte, ep editPoint, del int) bool {
	rest := ep.end - ep.start - del
	if rest < EmbeddedHeaderSize || !ep.facade(img) {
		return false
	}
	sib := ep.start
	if ep.pos == ep.start {
		sib += del
	}
	ti := u16(img[sib:])
	return EmbeddedHeaderSize+sizeAt(img, sib) == rest && ti < u16(img[2:]) && tableIs(img, ti, textKey)
}

// emitEmbedded writes n as an embedded node at pos — header, content,
// its content size backpatched, a text-only element fused — with the
// table indexes img's type table already has, and returns the offset
// behind it.
func emitEmbedded(img []byte, pos int, n *Node) (int, bool) {
	ti := tableIndex(img, nodeTypeKey(n))
	if ti < 0 || pos+EmbeddedHeaderSize > len(img) {
		return 0, false
	}
	hdr := pos
	putU16(img[hdr:], ti)
	pos += EmbeddedHeaderSize
	mark := 0
	if t := n.FusedText(); t != nil {
		n, mark = t, fusedMark
	}
	switch n.Kind {
	case KindLiteral:
		if pos+len(n.Payload) > len(img) {
			return 0, false
		}
		pos += copy(img[pos:], n.Payload)
	case KindProxy:
		if pos+records.RIDSize > len(img) {
			return 0, false
		}
		n.Target.Put(img[pos:])
		pos += records.RIDSize
	case KindAggregate:
		for _, c := range n.Children {
			var ok bool
			if pos, ok = emitEmbedded(img, pos, c); !ok {
				return 0, false
			}
		}
	default:
		return 0, false
	}
	putU16(img[hdr+2:], (pos-hdr-EmbeddedHeaderSize)|mark)
	return pos, true
}

// tableIndex returns the index of k in img's type table, or -1.
func tableIndex(img []byte, k typeKey) int {
	for i, tt := 0, u16(img[2:]); i < tt; i++ {
		if tableIs(img, i, k) {
			return i
		}
	}
	return -1
}

// typesSurvive reports whether every node type used inside img[lo:hi)
// — one embedded subtree — is also used by a node outside it, which is
// what keeps the type table exact when the subtree goes. Tables past 64
// entries are not tracked (no record comes near).
func typesSurvive(img []byte, lo, hi int) bool {
	tt := u16(img[2:])
	if tt > 64 {
		return false
	}
	root := recHeaderSize + ttEntrySize*tt
	kept := uint64(1) << u16(img[root:])
	var gone uint64
	for p := root + StandaloneHeaderSize; p+EmbeddedHeaderSize <= len(img); {
		ti := u16(img[p:])
		if ti >= tt {
			return false
		}
		if p >= lo && p < hi {
			gone |= 1 << ti
		} else {
			kept |= 1 << ti
		}
		p = nextHeader(img, p, ti)
	}
	return gone&^kept == 0
}
