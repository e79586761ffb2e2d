package noderep

import (
	"encoding/binary"
	"math"

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
// A Splice is reusable; the zero value is ready.
type Splice struct {
	// From and Fields describe the last successful edit: the returned
	// image differs from the one passed in from byte From on, and before
	// that only in the two-byte fields at the offsets in Fields (the
	// ancestors' content sizes).
	From   int
	Fields []int
}

// u16 and putU16 read and write the little-endian header fields.
func u16(b []byte) int { return int(binary.LittleEndian.Uint16(b)) }

func putU16(b []byte, v int) { binary.LittleEndian.PutUint16(b, uint16(v)) }

// tableKind returns the kind of type-table entry ti of img.
func tableKind(img []byte, ti int) Kind {
	return Kind(img[recHeaderSize+ttEntrySize*ti] & kindMask)
}

// nextHeader is one step of a flat pass over embedded headers: from the
// header at p, of table type ti, to the header that follows it in the
// image — its first child's when it is an aggregate (an aggregate's
// content is its children's headers), else the one behind its content.
func nextHeader(img []byte, p, ti int) int {
	if tableKind(img, ti) == KindAggregate {
		return p + EmbeddedHeaderSize
	}
	return p + EmbeddedHeaderSize + u16(img[p+2:])
}

// locate header-hops img along path — the child indexes from the record
// root down to the edit point — and returns the byte offset of child
// path[len-1] of the aggregate the rest of the path leads to and the end
// of that aggregate's content. The offsets of the content-size fields of
// the embedded aggregates on the way are left in sp.Fields. It reads
// nothing outside img, whatever img holds.
func (sp *Splice) locate(img []byte, path []int) (pos, end int, ok bool) {
	sp.Fields = sp.Fields[:0]
	if len(path) == 0 || len(img) < recHeaderSize+StandaloneHeaderSize || img[0] != formatVersion {
		return 0, 0, false
	}
	tt := u16(img[2:])
	root := recHeaderSize + ttEntrySize*tt
	if root+StandaloneHeaderSize > len(img) {
		return 0, 0, false
	}
	ti := u16(img[root:])
	pos, end = root+StandaloneHeaderSize, len(img)
	for depth, idx := range path {
		if ti >= tt || tableKind(img, ti) != KindAggregate || idx < 0 {
			return 0, 0, false
		}
		for ; idx > 0; idx-- {
			if pos+EmbeddedHeaderSize > end {
				return 0, 0, false
			}
			pos += EmbeddedHeaderSize + u16(img[pos+2:])
		}
		if pos > end {
			return 0, 0, false
		}
		if depth == len(path)-1 {
			break
		}
		if pos+EmbeddedHeaderSize > end {
			return 0, 0, false
		}
		ti = u16(img[pos:])
		cs := u16(img[pos+2:])
		if pos+EmbeddedHeaderSize+cs > end {
			return 0, 0, false
		}
		sp.Fields = append(sp.Fields, pos+2)
		pos += EmbeddedHeaderSize
		end = pos + cs
	}
	return pos, end, true
}

// Insert returns img with the subtree n added as child path[len-1] of
// the aggregate at path[:len-1], or false when that is not a splice: a
// node type missing from img's type table, a record past limit bytes or
// past 64 KB (no 16-bit content size in it can then overflow), a path
// that does not resolve, an image of an older format version. img is
// consumed either way — the result reuses its backing array when that
// has room for limit bytes — so the caller passes a copy of the stored
// image, and n must be well-formed (Validate).
func (sp *Splice) Insert(img []byte, path []int, n *Node, limit int) ([]byte, bool) {
	pos, _, ok := sp.locate(img, path)
	if !ok {
		return nil, false
	}
	old, delta := len(img), n.TotalSize()
	size := old + delta
	if size > limit || size > math.MaxUint16 {
		return nil, false
	}
	if cap(img) < size {
		img = append(make([]byte, 0, size), img...)
	}
	img = img[:size]
	copy(img[pos+delta:], img[pos:old])
	if end, ok := emitEmbedded(img, pos, n); !ok || end != pos+delta {
		return nil, false
	}
	for _, f := range sp.Fields {
		putU16(img[f:], u16(img[f:])+delta)
	}
	sp.From = pos
	return img, true
}

// Remove returns img without child path[len-1] of the aggregate at
// path[:len-1] (the child's whole subtree goes), or false when that is
// not a splice: the subtree holds the last node of some type, so a
// re-encode would drop the type-table entry, or the path does not
// resolve. img is consumed either way.
func (sp *Splice) Remove(img []byte, path []int) ([]byte, bool) {
	pos, end, ok := sp.locate(img, path)
	if !ok || pos+EmbeddedHeaderSize > end {
		return nil, false
	}
	del := EmbeddedHeaderSize + u16(img[pos+2:])
	if pos+del > end || !typesSurvive(img, pos, pos+del) {
		return nil, false
	}
	size := len(img) - del
	copy(img[pos:], img[pos+del:])
	img = img[:size]
	for _, f := range sp.Fields {
		putU16(img[f:], u16(img[f:])-del)
	}
	sp.From = pos
	return img, true
}

// emitEmbedded writes n as an embedded node at pos — header, content,
// its content size backpatched — with the table indexes img's type table
// already has, and returns the offset behind it.
func emitEmbedded(img []byte, pos int, n *Node) (int, bool) {
	ti := tableIndex(img, nodeTypeKey(n))
	if ti < 0 || pos+EmbeddedHeaderSize > len(img) {
		return 0, false
	}
	hdr := pos
	putU16(img[hdr:], ti)
	pos += EmbeddedHeaderSize
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
	putU16(img[hdr+2:], pos-hdr-EmbeddedHeaderSize)
	return pos, true
}

// tableIndex returns the index of k in img's type table, or -1.
func tableIndex(img []byte, k typeKey) int {
	tt := u16(img[2:])
	for i, p := 0, recHeaderSize; i < tt; i, p = i+1, p+ttEntrySize {
		if img[p] == k.kindFlags && u16(img[p+1:]) == int(k.label) && img[p+3] == byte(k.litType) {
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
