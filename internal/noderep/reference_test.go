package noderep

// The encoder of format versions 1, 2 and 3, in the shape it had before
// measure and emit were fused: five walks (validate, collectTypes,
// content size, encodeContent with a type scan per node). Version 1
// embedded headers are 6 bytes — typeIdx(2) contentSize(2) parentOff(2) —
// and an aggregate whose header lies past offset 65535 cannot be written,
// since its children could not cite it; version 2 headers are the first 4
// of those bytes; version 3 headers are version 2's, with the top bit of
// the size the fused mark of a text-only element, whose text then has no
// header and no type entry. Beside it, an encoder of format 4
// (refEncodeV4). Production code only reads these formats, in Upgrade;
// the differential tests hold the format 5 encoder against these tree
// for tree, and the stores of older records the upgrade tests open are
// written with them. Behind them (refImage), the in-place reader as it
// was before images were opened with a node table.

import (
	"encoding/binary"
	"fmt"
	"math"

	"natix/internal/dict"
	"natix/internal/records"
)

func refValidate(n *Node, isRoot bool) error {
	switch n.Kind {
	case KindAggregate:
		if len(n.Payload) != 0 {
			return fmt.Errorf("%w: aggregate with payload", ErrBadNode)
		}
		for _, c := range n.Children {
			if c.Parent != n {
				return fmt.Errorf("%w: child with stale parent link", ErrBadNode)
			}
			if err := refValidate(c, false); err != nil {
				return err
			}
		}
	case KindLiteral:
		if len(n.Children) != 0 {
			return fmt.Errorf("%w: literal with children", ErrBadNode)
		}
	case KindProxy:
		if len(n.Children) != 0 || len(n.Payload) != 0 {
			return fmt.Errorf("%w: proxy with children or payload", ErrBadNode)
		}
		if n.Target.IsNil() {
			return fmt.Errorf("%w: proxy with nil target", ErrBadNode)
		}
	default:
		return fmt.Errorf("%w: kind %d", ErrBadNode, n.Kind)
	}
	if n.Kind == KindAggregate && n.Scaffold && !isRoot {
		return fmt.Errorf("%w: embedded scaffolding aggregate", ErrBadNode)
	}
	return nil
}

// collectTypes walks the subtree assigning type-table indexes.
func collectTypes(root *Node) []typeKey {
	var order []typeKey
	root.Walk(func(n *Node) bool {
		if k := nodeTypeKey(n); typeIndex(order, k) < 0 {
			order = append(order, k)
		}
		return true
	})
	return order
}

// The older format versions.
const (
	formatVersion1 = 1
	formatVersion2 = 2
	formatVersion3 = 3
)

// refHeaderSize is the embedded header size of an old format version.
func refHeaderSize(version byte) int {
	if version == formatVersion1 {
		return 6
	}
	return 4
}

// refContentSize is ContentSize with hdr-byte headers, texts fused when
// fuse is set.
func refContentSize(n *Node, hdr int, fuse bool) int {
	switch n.Kind {
	case KindLiteral:
		return len(n.Payload)
	case KindProxy:
		return records.RIDSize
	}
	if t := n.FusedText(); fuse && t != nil {
		return len(t.Payload)
	}
	total := 0
	for _, c := range n.Children {
		total += hdr + refContentSize(c, hdr, fuse)
	}
	return total
}

// refTypes is the type table of rec's image in version.
func refTypes(rec *Record, version byte) []typeKey {
	if version == formatVersion3 {
		return tableTypes(rec.Root)
	}
	return collectTypes(rec.Root)
}

func refEncodedSize(rec *Record, version byte) int {
	return recHeaderSize + legacyEntrySize*len(refTypes(rec, version)) + legacyRootSize +
		refContentSize(rec.Root, refHeaderSize(version), version == formatVersion3)
}

func refEncodeV1(rec *Record) ([]byte, error) { return refEncode(rec, formatVersion1) }
func refEncodeV2(rec *Record) ([]byte, error) { return refEncode(rec, formatVersion2) }
func refEncodeV3(rec *Record) ([]byte, error) { return refEncode(rec, formatVersion3) }

func refEncode(rec *Record, version byte) ([]byte, error) {
	if rec.Root == nil {
		return nil, fmt.Errorf("%w: nil root", ErrBadNode)
	}
	if err := refValidate(rec.Root, true); err != nil {
		return nil, err
	}
	return refEncodeInto(rec, version, refEncodedSize(rec, version), refTypes(rec, version))
}

func refEncodeInto(rec *Record, version byte, size int, order []typeKey) ([]byte, error) {
	if len(order) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: %d node types", ErrTooLarge, len(order))
	}
	buf := make([]byte, size)
	buf[0] = version
	buf[1] = 0
	binary.LittleEndian.PutUint16(buf[2:], uint16(len(order)))
	pos := recHeaderSize
	for _, k := range order {
		buf[pos] = k.kindFlags
		binary.LittleEndian.PutUint16(buf[pos+1:], uint16(k.label))
		buf[pos+3] = byte(k.litType)
		pos += legacyEntrySize
	}
	rootOff := pos
	binary.LittleEndian.PutUint16(buf[pos:], uint16(typeIndex(order, nodeTypeKey(rec.Root))))
	rec.ParentRID.Put(buf[pos+2:])
	pos += legacyRootSize
	root := rec.Root
	if t := root.FusedText(); version == formatVersion3 && t != nil {
		root, buf[1] = t, rootFusedFlag
	}
	end, err := refEncodeContent(buf, pos, root, rootOff, order)
	if err != nil {
		return nil, err
	}
	if end != size {
		return nil, fmt.Errorf("noderep: encode size mismatch: wrote %d of %d", end, size)
	}
	return buf, nil
}

func refEncodeContent(buf []byte, pos int, n *Node, hdrOff int, order []typeKey) (int, error) {
	switch n.Kind {
	case KindLiteral:
		if pos+len(n.Payload) > len(buf) {
			return 0, fmt.Errorf("%w: literal overruns record", ErrTooLarge)
		}
		copy(buf[pos:], n.Payload)
		return pos + len(n.Payload), nil
	case KindProxy:
		if pos+records.RIDSize > len(buf) {
			return 0, fmt.Errorf("%w: proxy overruns record", ErrTooLarge)
		}
		n.Target.Put(buf[pos:])
		return pos + records.RIDSize, nil
	case KindAggregate:
		hdr := refHeaderSize(buf[0])
		if hdr == 6 && hdrOff > math.MaxUint16 {
			return 0, fmt.Errorf("%w: parent offset %d", ErrTooLarge, hdrOff)
		}
		for _, c := range n.Children {
			cHdr := pos
			if pos+hdr > len(buf) {
				return 0, fmt.Errorf("%w: embedded header overruns record", ErrTooLarge)
			}
			binary.LittleEndian.PutUint16(buf[pos:], uint16(typeIndex(order, nodeTypeKey(c))))
			if hdr == 6 {
				binary.LittleEndian.PutUint16(buf[pos+4:], uint16(hdrOff))
			}
			pos += hdr
			body, mark := c, 0
			if t := c.FusedText(); buf[0] == formatVersion3 && t != nil {
				body, mark = t, legacyFused
			}
			var err error
			pos, err = refEncodeContent(buf, pos, body, cHdr, order)
			if err != nil {
				return 0, err
			}
			cs := pos - cHdr - hdr
			if cs > math.MaxUint16 || mark != 0 && cs >= legacyFused {
				return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, cs)
			}
			binary.LittleEndian.PutUint16(buf[cHdr+2:], uint16(cs|mark))
		}
		return pos, nil
	default:
		return 0, fmt.Errorf("%w: kind %d", ErrBadNode, n.Kind)
	}
}

// refEncodeV4 writes rec as a format 4 image: format 5's embedded headers
// but for a proxy's, which cites a table entry of its own and holds its
// target's RID alone; 4-byte table entries; a 2-byte standalone type
// index; the wide flag past 128 types.
func refEncodeV4(rec *Record) ([]byte, error) {
	if rec.Root == nil {
		return nil, fmt.Errorf("%w: nil root", ErrBadNode)
	}
	if err := refValidate(rec.Root, true); err != nil {
		return nil, err
	}
	order := tableTypes(rec.Root)
	if len(order) > 1<<15 {
		return nil, fmt.Errorf("%w: %d node types", ErrTooLarge, len(order))
	}
	wide := len(order) > legacyNarrow
	buf := []byte{legacyVersion4, 0, 0, 0}
	if wide {
		buf[1] = wideFlag
	}
	putU16(buf[2:], len(order))
	for _, k := range order {
		buf = append(buf, k.kindFlags, byte(k.label), byte(k.label>>8), byte(k.litType))
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(typeIndex(order, nodeTypeKey(rec.Root))))
	buf = rec.ParentRID.Encode(buf)
	root := rec.Root
	if t := root.FusedText(); t != nil {
		root = t
		buf[1] |= rootFusedFlag
	}
	var content func(n *Node) error
	content = func(n *Node) error {
		switch n.Kind {
		case KindLiteral:
			buf = append(buf, n.Payload...)
		case KindProxy:
			buf = n.Target.Encode(buf)
		case KindAggregate:
			for _, c := range n.Children {
				ti, body := typeIndex(order, nodeTypeKey(c)), c
				fused := c.FusedText() != nil
				if fused {
					body = c.FusedText()
				}
				switch {
				case wide && fused:
					buf = binary.LittleEndian.AppendUint16(buf, uint16(ti|wideFused))
				case wide:
					buf = binary.LittleEndian.AppendUint16(buf, uint16(ti))
				case fused:
					buf = append(buf, byte(ti|narrowFused))
				default:
					buf = append(buf, byte(ti))
				}
				switch {
				case c.Kind == KindProxy:
				case c.Kind == KindAggregate && !fused:
					at := len(buf)
					buf = append(buf, 0, 0)
					if err := content(c); err != nil {
						return err
					}
					if cs := len(buf) - at - 2; cs <= maxContentSize {
						putU16(buf[at:], cs)
						continue
					}
					return fmt.Errorf("%w: aggregate content", ErrTooLarge)
				case len(body.Payload) > maxContentSize:
					return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(body.Payload))
				case len(body.Payload) < longSize:
					buf = append(buf, byte(len(body.Payload)))
				default:
					buf = append(buf, byte(len(body.Payload))|longSize, byte(len(body.Payload)>>7))
				}
				if err := content(body); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := content(root); err != nil {
		return nil, err
	}
	return buf, nil
}

// refImage is the in-place reader as it was before OpenImage built a node
// table: every read re-reads the header it reaches — the type index
// against the table, the content against the image's end and against the
// content enclosing it — and reports ErrCorruptRecord rather than reading
// past the buffer. The table is held against it node for node
// (FuzzWalkImage).
type refImage struct {
	buf   string
	wide  bool // two-byte type indexes
	types int  // type-table entries
	root  int  // offset of the standalone header
}

// refOpenImage reads the record header of buf: the version, its flags,
// and the type table and standalone header, which must lie inside buf.
func refOpenImage(buf string) (refImage, error) {
	if len(buf) < recHeaderSize+StandaloneHeaderSize || buf[0] != FormatVersion || buf[1]&^(rootFusedFlag|wideFlag) != 0 {
		return refImage{}, ErrCorruptRecord
	}
	im := refImage{buf: buf, wide: buf[1]&wideFlag != 0, types: u16(buf[2:])}
	im.root = recHeaderSize + ttEntrySize*im.types
	if im.root+StandaloneHeaderSize > len(buf) || im.wide != (im.types > narrowTypes) {
		return refImage{}, ErrCorruptRecord
	}
	return im, nil
}

// Root reads the record's standalone root, whose content runs to the end
// of the image, into n.
func (im *refImage) Root(n *ImageNode) error {
	ti := int(im.buf[im.root])
	if ti >= im.types {
		return ErrCorruptRecord
	}
	start, end, fused := im.root+StandaloneHeaderSize, len(im.buf), im.buf[1]&rootFusedFlag != 0
	im.fill(n, ti, start, end, fused)
	switch {
	case n.Kind == KindInvalid, n.Kind == KindProxy,
		fused && (n.Kind != KindAggregate || n.Scaffold):
		return ErrCorruptRecord
	}
	return nil
}

// Child reads the embedded node whose header is at off, inside content
// that ends at end, into n: the first child of an aggregate p is
// Child(p.Start, p.End) when p.Start < p.End, and the sibling behind
// child c is Child(c.End, p.End) when c.End < p.End.
func (im *refImage) Child(n *ImageNode, off, end int) error {
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
// [off, end) — a child, not a deeper node — has a type pred accepts,
// reading the headers and their types only.
func (im *refImage) ChildHas(off, end int, pred func(Kind, dict.LabelID) bool) (bool, error) {
	if end > len(im.buf) || off < im.root+StandaloneHeaderSize && off < end {
		return false, ErrCorruptRecord
	}
	var h header
	for off < end {
		if !readHeader(im.buf, im.wide, im.types, off, end, &h) {
			return false, ErrCorruptRecord
		}
		k := proxyKey
		if h.ti >= 0 {
			k = entryKey(im.buf[recHeaderSize+ttEntrySize*h.ti:])
		}
		if pred(Kind(k.kindFlags&kindMask), k.label) {
			return true, nil
		}
		off = h.end()
	}
	return false, nil
}

// fill sets n to a node of type-table entry ti, ti < im.types, or a
// proxy for ti -1.
func (im *refImage) fill(n *ImageNode, ti, start, end int, fused bool) {
	k := proxyKey
	if ti >= 0 {
		k = entryKey(im.buf[recHeaderSize+ttEntrySize*ti:])
	}
	n.Start, n.End = int32(start), int32(end)
	n.Kind, n.LitType, n.Label = Kind(k.kindFlags&kindMask), k.litType, k.label
	n.Scaffold, n.Fused = k.kindFlags&scaffoldFlag != 0, fused
}

// refFacades is the pre-order walk over the facade nodes of an image —
// the enumeration a facade index counts in — from header to header. A
// proxy is a leaf of the walk, so it never leaves the record.
type refFacades struct {
	im         *refImage
	next       int  // offset of the next header; -1 before the root
	ti         int  // the current node's type-table entry; -1 before the first node
	start, end int  // the current node's content
	text       bool // the current node is the text of the fused element before it
	fused      bool // the current node is a fused element: its text is next
}

// Facades starts a facade walk of the image.
func (im *refImage) Facades() refFacades { return refFacades{im: im, next: -1, ti: -1} }

// Advance moves to the next facade node, false once the record is
// exhausted. An error ends the walk.
func (f *refFacades) Advance() (bool, error) {
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
			h = header{ti: int(buf[off]), start: off + StandaloneHeaderSize, cs: len(buf) - off - StandaloneHeaderSize, fused: buf[1]&rootFusedFlag != 0}
			if h.ti >= im.types {
				return f.fail()
			}
			h.kf = buf[recHeaderSize+ttEntrySize*h.ti] & (kindMask | scaffoldFlag)
			if kind := Kind(h.kf & kindMask); kind == KindInvalid || kind == KindProxy || h.fused && (kind != KindAggregate || h.kf&scaffoldFlag != 0) {
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
func (f *refFacades) fail() (bool, error) {
	f.next, f.ti, f.fused = len(f.im.buf), -1, false
	return false, ErrCorruptRecord
}

// Node reads the node Advance stopped on into n.
func (f *refFacades) Node(n *ImageNode) error {
	if f.ti < 0 {
		return ErrCorruptRecord
	}
	f.im.fill(n, f.ti, f.start, f.end, !f.text && f.fused)
	if f.text {
		n.ToText()
	}
	return nil
}
