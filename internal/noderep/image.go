package noderep

import (
	"natix/internal/dict"
	"natix/internal/records"
)

// Reading a record where it lies. A stored image lists its nodes in
// pre-order: an embedded node is its header — its type and, unless it is
// a proxy, its size — and then its content, and an aggregate's content
// is its children, header and content, back to back. So an aggregate's
// first child is the header at the start of its content, a node's next
// sibling the header behind its content, and a pre-order walk one pass
// over the headers. Image
// reads nodes that way, with no Node in sight: the query path resolves
// postings, navigates and reads text and markup out of the image bytes,
// and only the write path decodes (Decode). The image is a string: what
// Image reads out of it — a payload, a fused element's text — is a
// substring, which shares the image's memory and needs no copy to outlive
// the read.
//
// Every read checks the header it reaches — the type index against the
// table, the content against the image's end and against the content
// enclosing it — and reports ErrCorruptRecord rather than reading past
// the buffer, so no image makes Image panic or loop. Decode holds an
// image to more than that (every table entry cited, every text-only
// element fused); on an image Decode accepts, both read the same nodes.

// Image is a record image opened for reading in place. It keeps the
// string it was opened on.
type Image struct {
	buf   string
	wide  bool // two-byte type indexes
	types int  // type-table entries
	root  int  // offset of the standalone header
}

// ImageNode is one node read out of an image: its type and where its
// content lies. The text of a fused element — the second of the two
// nodes Decode expands it into — is an ImageNode of its own (ToText).
// The readers fill an ImageNode in place, where its user keeps it.
type ImageNode struct {
	Start, End int32 // content: payload, proxy target, children, or a fused element's text
	Label      dict.LabelID
	Kind       Kind
	LitType    LitType // literals only
	Scaffold   bool
	Fused      bool // a text-only element: its content is its text's payload
}

// OpenImage reads the record header of buf: the version, its flags, and
// the type table and standalone header, which must lie inside buf. The
// nodes are checked as they are read.
//
//natix:noalloc
func OpenImage(buf string) (Image, error) {
	if len(buf) < recHeaderSize+StandaloneHeaderSize || buf[0] != FormatVersion || buf[1]&^(rootFusedFlag|wideFlag) != 0 {
		return Image{}, ErrCorruptRecord
	}
	im := Image{buf: buf, wide: buf[1]&wideFlag != 0, types: u16(buf[2:])}
	im.root = recHeaderSize + ttEntrySize*im.types
	if im.root+StandaloneHeaderSize > len(buf) || im.wide != (im.types > narrowTypes) {
		return Image{}, ErrCorruptRecord
	}
	return im, nil
}

// Data returns the image Image was opened on.
func (im *Image) Data() string { return im.buf }

// Root reads the record's standalone root, whose content runs to the end
// of the image, into n.
//
//natix:noalloc
func (im *Image) Root(n *ImageNode) error {
	ti := u16(im.buf[im.root:])
	if ti >= im.types {
		return ErrCorruptRecord
	}
	start, end, fused := im.root+StandaloneHeaderSize, len(im.buf), im.buf[1]&rootFusedFlag != 0
	im.fill(n, ti, start, end, fused)
	switch {
	case n.Kind == KindInvalid,
		n.Kind == KindProxy && end-start != records.RIDSize,
		fused && (n.Kind != KindAggregate || n.Scaffold):
		return ErrCorruptRecord
	}
	return nil
}

// Child reads the embedded node whose header is at off, inside content
// that ends at end, into n: the first child of an aggregate p is
// Child(p.Start, p.End) when p.Start < p.End, and the sibling behind
// child c is Child(c.End, p.End) when c.End < p.End.
//
//natix:noalloc
func (im *Image) Child(n *ImageNode, off, end int) error {
	if off < im.root+StandaloneHeaderSize || end > len(im.buf) {
		return ErrCorruptRecord
	}
	var h header
	if !readHeader(im.buf, im.wide, im.types, off, end, &h) {
		return ErrCorruptRecord
	}
	im.fill(n, h.ti, h.start, h.end(), h.fused)
	return nil
}

// ChildHas reports whether a node stored in the aggregate content
// [off, end) — a child, not a deeper node — has a type pred accepts. It
// reads the headers and their types only; Child checks the rest when
// the nodes are read.
//
//natix:noalloc
func (im *Image) ChildHas(off, end int, pred func(Kind, dict.LabelID) bool) (bool, error) {
	if end > len(im.buf) || off < im.root+StandaloneHeaderSize && off < end {
		return false, ErrCorruptRecord
	}
	var h header
	for off < end {
		if !readHeader(im.buf, im.wide, im.types, off, end, &h) {
			return false, ErrCorruptRecord
		}
		if pred(im.typeAt(h.ti)) {
			return true, nil
		}
		off = h.end()
	}
	return false, nil
}

// TableHas reports whether the image's type table holds a type pred
// accepts: a pass over the table, not over the nodes, so a type the
// table does not hold rules out every node of the record at once.
//
//natix:noalloc
func (im *Image) TableHas(pred func(Kind, dict.LabelID) bool) bool {
	for i := range im.types {
		if pred(im.typeAt(i)) {
			return true
		}
	}
	return false
}

// typeAt returns the kind and label of type-table entry i, i < im.types.
func (im *Image) typeAt(i int) (Kind, dict.LabelID) {
	e := im.buf[recHeaderSize+ttEntrySize*i:]
	e = e[:ttEntrySize]
	return Kind(e[0] & kindMask), dict.LabelID(u16(e[1:]))
}

// fill sets n to a node of type-table entry ti, ti < im.types.
func (im *Image) fill(n *ImageNode, ti, start, end int, fused bool) {
	e := im.buf[recHeaderSize+ttEntrySize*ti:]
	e = e[:ttEntrySize]
	n.Start, n.End = int32(start), int32(end)
	n.Kind, n.LitType = Kind(e[0]&kindMask), 0
	if n.Kind == KindLiteral {
		n.LitType = LitType(e[3])
	}
	n.Label = dict.LabelID(u16(e[1:]))
	n.Scaffold, n.Fused = e[0]&scaffoldFlag != 0, fused
}

// ToText turns a fused element n into its text: a facade #text string
// literal whose payload is n's content.
func (n *ImageNode) ToText() {
	n.Kind, n.LitType, n.Label, n.Scaffold, n.Fused = KindLiteral, LitString, dict.Text, false, false
}

// Payload returns n's content bytes — a literal's payload — as a
// substring of the image.
func (im *Image) Payload(n *ImageNode) string { return im.buf[n.Start:n.End] }

// Target returns the record a proxy points to.
//
//natix:noalloc
func (im *Image) Target(n *ImageNode) (records.RID, error) {
	if n.Kind != KindProxy || n.End-n.Start != records.RIDSize {
		return records.NilRID, ErrCorruptRecord
	}
	rid := records.DecodeRID(im.buf[n.Start:n.End])
	if rid.IsNil() {
		return records.NilRID, ErrCorruptRecord
	}
	return rid, nil
}

// Facades is the pre-order walk over the facade nodes of an image — the
// enumeration a facade index counts in. A proxy is a leaf of the walk,
// so it never leaves the record. Advance steps from header to header
// reading only what it must to tell a facade node and find the next
// header, and keeps that much of the node it stops on for Node.
type Facades struct {
	im         *Image
	next       int  // offset of the next header; -1 before the root
	ti         int  // the current node's type-table entry; -1 before the first node
	start, end int  // the current node's content
	text       bool // the current node is the text of the fused element before it
	fused      bool // the current node is a fused element: its text is next
}

// Facades starts a facade walk of the image, which must stay open for
// the walk.
func (im *Image) Facades() Facades { return Facades{im: im, next: -1, ti: -1} }

// Advance moves to the next facade node, false once the record is
// exhausted. An error ends the walk.
//
//natix:noalloc
func (f *Facades) Advance() (bool, error) {
	if f.fused {
		f.fused, f.text = false, true
		return true, nil
	}
	f.text = false
	im := f.im
	buf := im.buf
	for {
		off := f.next
		var h header
		switch {
		case off < 0:
			off = im.root
			h = header{ti: u16(buf[off:]), start: off + StandaloneHeaderSize, cs: len(buf) - off - StandaloneHeaderSize, fused: buf[1]&rootFusedFlag != 0}
			if h.ti >= im.types {
				return f.fail()
			}
			h.kf = buf[recHeaderSize+ttEntrySize*h.ti]
			if kind := Kind(h.kf & kindMask); kind == KindInvalid || h.fused && (kind != KindAggregate || h.kf&scaffoldFlag != 0) {
				return f.fail()
			}
		case off == len(buf):
			f.ti = -1
			return false, nil
		default:
			if !readHeader(buf, im.wide, im.types, off, len(buf), &h) {
				return f.fail()
			}
		}
		kind, scaffold := Kind(h.kf&kindMask), h.kf&scaffoldFlag != 0
		// Into an aggregate's children, past anything else's content.
		if f.next = h.end(); h.aggregate() {
			f.next = h.start
		}
		if kind == KindLiteral || kind == KindAggregate && !scaffold {
			f.ti, f.start, f.end, f.fused = h.ti, h.start, h.end(), h.fused
			return true, nil
		}
	}
}

// fail ends the walk on a corrupt header.
func (f *Facades) fail() (bool, error) {
	f.next, f.ti, f.fused = len(f.im.buf), -1, false
	return false, ErrCorruptRecord
}

// Node reads the node Advance stopped on into n.
//
//natix:noalloc
func (f *Facades) Node(n *ImageNode) error {
	if f.ti < 0 {
		return ErrCorruptRecord
	}
	f.im.fill(n, f.ti, f.start, f.end, !f.text && f.fused)
	if f.text {
		n.ToText()
	}
	return nil
}
