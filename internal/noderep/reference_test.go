package noderep

// The encoder of format versions 1, 2 and 3, in the shape it had before
// measure and emit were fused: five walks (validate, collectTypes,
// content size, encodeContent with a type scan per node). Version 1
// embedded headers are 6 bytes — typeIdx(2) contentSize(2) parentOff(2) —
// and an aggregate whose header lies past offset 65535 cannot be written,
// since its children could not cite it; version 2 headers are the first 4
// of those bytes; version 3 headers are version 2's, with the top bit of
// the size the fused mark of a text-only element, whose text then has no
// header and no type entry. Production code only reads these formats, in
// Upgrade; the differential tests hold the format 4 encoder against this
// one tree for tree and size for size, and the stores of older records
// the upgrade tests open are written with it.

import (
	"encoding/binary"
	"fmt"
	"math"

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
	return recHeaderSize + ttEntrySize*len(refTypes(rec, version)) + StandaloneHeaderSize +
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
		pos += ttEntrySize
	}
	rootOff := pos
	binary.LittleEndian.PutUint16(buf[pos:], uint16(typeIndex(order, nodeTypeKey(rec.Root))))
	rec.ParentRID.Put(buf[pos+2:])
	pos += StandaloneHeaderSize
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
