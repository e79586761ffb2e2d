package noderep

import (
	"encoding/binary"
	"slices"
)

// Splice edits a stored record image in place of a re-encode: adding
// one child subtree costs the subtree's own bytes, the move of the bytes
// behind it and the content sizes of its ancestors; removing one costs
// the move, the sizes and one flat pass over the record's headers
// (typesSurvive) — no Measure, no Emit, no tree walk. The image keeps
// its type table as stored (Decode does not care about the table's
// order), so an edit that would need a new entry, or leave one unused,
// is not spliceable and takes the full encode. A proxy needs none: its
// type is the reserved one. Neither is an image with
// two-byte type indexes (the wide flag), which no real record needs.
//
// A text into an empty element, the commonest edit of all, fuses the
// two (see the package comment) and is still a splice: the element's
// header — its type and a two-byte size of 0 — becomes the marked type,
// the text's one- or two-byte size and the text's bytes, one contiguous
// change from the header on, behind which the record moves as a whole.
// For the record root the mark is the record header's flags byte, which
// joins the fields the splice patches. Removing the text of a text-only
// element is the same backwards. Any other edit that fuses or unfuses a
// pair — a second child into a text-only element, the removal of the
// last sibling of a text — moves the text's header as well, which is not
// one contiguous insert or removal, and is not spliceable.
//
// A Splice is reusable; the zero value is ready.
type Splice struct {
	// From and Fields describe the last successful edit: the returned
	// image differs from the one passed in from byte From on, and before
	// that only in the two-byte fields at the offsets in Fields — the
	// ancestors' size fields, for an edit that fuses or unfuses the record
	// root the record header's first two bytes (the flags), and for one
	// that fuses or unfuses an embedded element the bytes of its header
	// in front of From.
	From   int
	Fields []int
}

// u16 and putU16 read and write the little-endian header fields.
func u16[B ~[]byte | ~string](b B) int {
	_ = b[1]
	return int(b[0]) | int(b[1])<<8
}

func putU16(b []byte, v int) { binary.LittleEndian.PutUint16(b, uint16(v)) }

// tableFlags returns the kind flags of type-table entry ti of img.
func tableFlags(img []byte, ti int) byte { return img[recHeaderSize+ttEntrySize*ti] }

// tableIs reports whether type-table entry ti of img is k.
func tableIs(img []byte, ti int, k typeKey) bool {
	p := recHeaderSize + ttEntrySize*ti
	return img[p] == k.entryByte() && u16(img[p+1:]) == int(k.label)
}

// editPoint is where a path leads: child idx of an aggregate of table
// type ti whose header is at hdr (-1 for the record root) and whose
// content is img[start:end), the child at byte pos. When the aggregate
// is a fused element its content is its text's payload and the only
// child there is to name is that text (idx 0, pos == start).
type editPoint struct {
	pos, start, end int
	hdr             int
	ti              int
	fused           bool
}

// facade reports whether the aggregate of the edit point is one an edit
// can fuse with a text.
func (ep editPoint) facade(img []byte) bool { return tableFlags(img, ep.ti)&scaffoldFlag == 0 }

// locate header-hops img along path — the child indexes from the record
// root down to the edit point — to child path[len-1] of the aggregate
// the rest of the path leads to. The offsets of the size fields of the
// unfused embedded aggregates on the way, that aggregate's last, are
// left in sp.Fields. It reads nothing outside img, whatever img holds.
func (sp *Splice) locate(img []byte, path []int) (ep editPoint, ok bool) {
	sp.Fields = sp.Fields[:0]
	if len(path) == 0 || len(img) < recHeaderSize+StandaloneHeaderSize || img[0] != FormatVersion || img[1]&wideFlag != 0 {
		return ep, false
	}
	tt := u16(img[2:])
	root := recHeaderSize + ttEntrySize*tt
	if tt > narrowTypes || root+StandaloneHeaderSize > len(img) {
		return ep, false
	}
	ep = editPoint{ti: int(img[root]), hdr: -1, start: root + StandaloneHeaderSize, end: len(img), fused: img[1]&rootFusedFlag != 0}
	for depth, idx := range path {
		last := depth == len(path)-1
		if ep.ti < 0 || ep.ti >= tt || Kind(tableFlags(img, ep.ti)&kindMask) != KindAggregate || idx < 0 {
			return ep, false
		}
		pos := ep.start
		if ep.fused {
			if !last || idx != 0 {
				return ep, false
			}
		} else {
			if pos = hop(img, tt, pos, ep.end, idx); pos < 0 {
				return ep, false
			}
		}
		if last {
			ep.pos = pos
			break
		}
		var h header
		if !readHeader(img, false, tt, pos, ep.end, &h) {
			return ep, false
		}
		if h.aggregate() {
			sp.Fields = append(sp.Fields, h.start-2)
		}
		ep = editPoint{ti: h.ti, hdr: pos, start: h.start, end: h.end(), fused: h.fused}
	}
	return ep, true
}

// Insert returns img with the subtree n added as child path[len-1] of
// the aggregate at path[:len-1], or false when that is not a splice: a
// node type missing from img's type table, a record past limit bytes or
// past 32 KB (no 15-bit content size in it can then overflow), a path
// that does not resolve, a child beside the text of a fused element, a
// wide image or one of an older format version. n must be well-formed
// (Validate). The result reuses img's backing array when that has room
// for limit bytes, so the caller passes a copy of the stored image; a
// refusal leaves img as it was, for the caller to decode.
func (sp *Splice) Insert(img []byte, path []int, n *Node, limit int) ([]byte, bool) {
	ep, ok := sp.locate(img, path)
	if !ok || ep.fused {
		return nil, false
	}
	if ep.start == ep.end && ep.facade(img) && nodeTypeKey(n) == textKey {
		// A text into an empty element fuses: its payload is all that goes
		// in, under the element's header.
		if ep.hdr < 0 {
			if img, ok = sp.replace(img, ep.pos, 0, len(n.Payload), limit); !ok {
				return nil, false
			}
			copy(img[ep.pos:], n.Payload)
			img[1] |= rootFusedFlag
			sp.Fields = append(sp.Fields, 0)
			return img, true
		}
		sp.Fields = sp.Fields[:len(sp.Fields)-1] // the header is rewritten whole
		size := len(n.Payload)
		if img, ok = sp.replace(img, ep.hdr, ep.start-ep.hdr, 1+sizeLen(KindLiteral, false, size)+size, limit); !ok {
			return nil, false
		}
		pos := putSize(img, putType(img, ep.hdr, ep.ti, true, false), size)
		copy(img[pos:], n.Payload)
		return img, true
	}
	if !typesPresent(img, n) {
		return nil, false
	}
	delta := n.TotalSize()
	if img, ok = sp.replace(img, ep.pos, 0, delta, limit); !ok {
		return nil, false
	}
	if end, ok := emitEmbedded(img, ep.pos, n); !ok || end != ep.pos+delta {
		return nil, false
	}
	return img, true
}

// Remove returns img without child path[len-1] of the aggregate at
// path[:len-1] (the child's whole subtree goes), or false when that is
// not a splice: the subtree holds the last node of some type, so a
// re-encode would drop the type-table entry, the child's only sibling is
// a text a re-encode would fuse with the aggregate, or the path does not
// resolve. Like Insert it edits img in place and leaves it as it was when
// it refuses.
func (sp *Splice) Remove(img []byte, path []int) ([]byte, bool) {
	ep, ok := sp.locate(img, path)
	if !ok {
		return nil, false
	}
	if ep.fused {
		// The text of a fused element has no header and cites no type: its
		// payload goes, and the element's header loses the mark.
		if ep.hdr < 0 {
			img, _ = sp.replace(img, ep.start, ep.end-ep.start, 0, maxContentSize)
			img[1] &^= rootFusedFlag
			sp.Fields = append(sp.Fields, 0)
			return img, true
		}
		if img, ok = sp.replace(img, ep.hdr, ep.end-ep.hdr, 3, maxContentSize); !ok {
			return nil, false
		}
		putU16(img[putType(img, ep.hdr, ep.ti, false, false):], 0)
		return img, true
	}
	var h header
	if !readHeader(img, false, u16(img[2:]), ep.pos, ep.end, &h) {
		return nil, false
	}
	del := h.end() - ep.pos
	if leavesLoneText(img, ep, del) || !typesSurvive(img, ep.pos, h.end()) {
		return nil, false
	}
	return sp.replace(img, ep.pos, del, 0, maxContentSize)
}

// replace makes room in img for b bytes in place of the a at offset at,
// moving what follows, patches the size fields in sp.Fields by the
// difference, and records the change in sp: from at+min(a, b) on, what
// follows having moved as a whole, and before that the two-byte fields
// covering the rest of the b bytes, which the caller writes. It reports
// false, with img as it was, when the result would pass limit bytes or
// 32 KB.
func (sp *Splice) replace(img []byte, at, a, b, limit int) ([]byte, bool) {
	old, delta := len(img), b-a
	size := old + delta
	if size > limit || size > maxContentSize {
		return nil, false
	}
	if delta > 0 {
		if cap(img) < size {
			img = append(make([]byte, 0, size), img...)
		}
		img = img[:size]
		copy(img[at+b:], img[at+a:old])
	} else {
		copy(img[at+b:], img[at+a:])
		img = img[:size]
	}
	before := -1 // the byte in front of at
	if at > 0 {
		before = int(img[at-1])
	}
	for _, f := range sp.Fields {
		putU16(img[f:], u16(img[f:])+delta)
	}
	sp.From = at + min(a, b)
	f := at - (sp.From-at)%2
	if f < at && int(img[at-1]) != before {
		// The byte in front of at is the high byte of the size field at
		// at-2, which the edit changed, and two fields may not overlap:
		// that field is declared a byte earlier, over the type in front
		// of it, which stays as it was.
		if i := slices.Index(sp.Fields, at-2); i >= 0 {
			sp.Fields[i] = at - 3
		}
	}
	for ; f < sp.From; f += 2 {
		sp.Fields = append(sp.Fields, f)
	}
	return img, true
}

// leavesLoneText reports whether removing the del bytes of the child at
// ep.pos leaves the aggregate a single child that is a text it would be
// fused with.
func leavesLoneText(img []byte, ep editPoint, del int) bool {
	rest := ep.end - ep.start - del
	if rest == 0 || !ep.facade(img) {
		return false
	}
	sib := ep.start
	if ep.pos == ep.start {
		sib += del
	}
	var h header
	return readHeader(img, false, u16(img[2:]), sib, ep.end, &h) && h.end()-sib == rest && h.ti >= 0 && tableIs(img, h.ti, textKey)
}

// emitEmbedded writes n as an embedded node at pos — header, content,
// an aggregate's content size backpatched, a text-only element fused —
// with the one-byte table indexes img's type table already has, and
// returns the offset behind it.
func emitEmbedded(img []byte, pos int, n *Node) (int, bool) {
	if n.Kind == KindProxy {
		if pos+ProxySize > len(img) {
			return 0, false
		}
		img[pos] = proxyNarrow
		return putProxy(img, pos+1, n), true
	}
	ti := tableIndex(img, nodeTypeKey(n))
	body, fused := n, false
	if t := n.FusedText(); t != nil {
		body, fused = t, true
	}
	if ti < 0 || ti >= narrowTypes || pos >= len(img) {
		return 0, false
	}
	pos = putType(img, pos, ti, fused, false)
	switch {
	case n.Kind == KindAggregate && !fused:
		if pos+2 > len(img) {
			return 0, false
		}
		sz := pos
		pos += 2
		for _, c := range n.Children {
			var ok bool
			if pos, ok = emitEmbedded(img, pos, c); !ok {
				return 0, false
			}
		}
		putU16(img[sz:], pos-sz-2)
		return pos, true
	case body.Kind == KindLiteral:
		size := len(body.Payload)
		if pos+sizeLen(KindLiteral, false, size)+size > len(img) {
			return 0, false
		}
		pos = putSize(img, pos, size)
		return pos + copy(img[pos:], body.Payload), true
	}
	return 0, false
}

// typesPresent reports whether img's type table holds, at a one-byte
// index, every type emitEmbedded cites to write n. A proxy cites none.
func typesPresent(img []byte, n *Node) bool {
	if n.Kind == KindProxy {
		return true
	}
	if ti := tableIndex(img, nodeTypeKey(n)); ti < 0 || ti >= narrowTypes {
		return false
	}
	if n.Kind != KindAggregate || n.FusedText() != nil {
		return true
	}
	for _, c := range n.Children {
		if !typesPresent(img, c) {
			return false
		}
	}
	return true
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
// what keeps the type table exact when the subtree goes. It hops every
// embedded header of img, a narrow image whose root is not fused.
func typesSurvive(img []byte, lo, hi int) bool {
	tt := u16(img[2:])
	root := recHeaderSize + ttEntrySize*tt
	var kept, gone [typeWords]uint64
	ti := int(img[root])
	kept[ti/64] |= 1 << (ti % 64)
	var h header
	for p := root + StandaloneHeaderSize; p < len(img); {
		if !readHeader(img, false, tt, p, len(img), &h) {
			return false
		}
		if h.ti < 0 {
			p = h.end() // a proxy: no type
			continue
		}
		if p >= lo && p < hi {
			gone[h.ti/64] |= 1 << (h.ti % 64)
		} else {
			kept[h.ti/64] |= 1 << (h.ti % 64)
		}
		if p = h.end(); h.aggregate() {
			p = h.start
		}
	}
	for i := range gone {
		if gone[i]&^kept[i] != 0 {
			return false
		}
	}
	return true
}
