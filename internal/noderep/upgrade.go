package noderep

import (
	"fmt"

	"natix/internal/dict"
	"natix/internal/records"
)

// The record formats before 4, which only Upgrade reads. Their grammar is
// format 4's with fixed-width embedded headers:
//
//	version 3: embedded := typeIdx(2) fused(1 bit, the top one) contentSize(15 bits) content
//	version 2: embedded := typeIdx(2) contentSize(16 bits) content
//	version 1: embedded := typeIdx(2) contentSize(16 bits) parentOff(2) content
//
// with no wide flag, the rootFused flag in version 3 only, and version
// 1's parentOff the offset of the parent's header. Version 3 fused
// text-only elements as format 4 does; the older two never did.
const (
	legacyVersion3 = 3
	legacyVersion1 = 1
	legacyFused    = 0x8000
)

// Upgrade reads a record image of any format version this package has
// written and returns its tree and, unless img already is one, its image
// in format 4 (nil when it is), never longer than img — every embedded
// header shrinks or keeps its size, and a type table only loses the
// #text entry that fused texts no longer cite. An image Decode (for
// format 4) or the legacy decoder rejects is an ErrCorruptRecord, as is
// a legacy tree Encode refuses.
func Upgrade(img []byte) (*Record, []byte, error) {
	if len(img) > 0 && img[0] == FormatVersion {
		rec, err := Decode(img)
		return rec, nil, err
	}
	rec, err := decodeLegacy(img)
	if err != nil {
		return nil, nil, err
	}
	out, err := Encode(rec)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %w", ErrCorruptRecord, err)
	}
	if len(out) > len(img) {
		return nil, nil, fmt.Errorf("noderep: upgrade of a %d-byte image took %d bytes", len(img), len(out))
	}
	return rec, out, nil
}

// legacy is the state of one decodeLegacy.
type legacy struct {
	buf     []byte
	types   []tableEntry
	hdr     int  // embedded header size
	version byte // 1, 2 or 3
}

// decodeLegacy parses an image of format version 1, 2 or 3 as the
// runtime decoder of those versions did: sizes inside their parents,
// type indexes inside the table and every entry cited once, version 1's
// parent offsets, and in version 3 the mark on facade aggregates only
// and every text-only element fused.
func decodeLegacy(buf []byte) (*Record, error) {
	if len(buf) < recHeaderSize+StandaloneHeaderSize || buf[0] < legacyVersion1 || buf[0] > legacyVersion3 {
		return nil, fmt.Errorf("%w: not a record image of format 1 to 3", ErrCorruptRecord)
	}
	d := legacy{buf: buf, hdr: 4, version: buf[0]}
	flags := byte(0)
	switch d.version {
	case legacyVersion3:
		flags = rootFusedFlag
	case legacyVersion1:
		d.hdr = 6
	}
	if buf[1]&^flags != 0 {
		return nil, fmt.Errorf("%w: flags %#x in a version %d image", ErrCorruptRecord, buf[1], buf[0])
	}
	tt := u16(buf[2:])
	pos := recHeaderSize
	if pos+ttEntrySize*tt+StandaloneHeaderSize > len(buf) {
		return nil, fmt.Errorf("%w: truncated type table", ErrCorruptRecord)
	}
	d.types = make([]tableEntry, tt)
	for i := range d.types {
		k := typeKey{kindFlags: buf[pos], label: dict.LabelID(u16(buf[pos+1:])), litType: LitType(buf[pos+3])}
		if k.kindFlags&^(kindMask|scaffoldFlag) != 0 || (Kind(k.kindFlags&kindMask) != KindLiteral && k.litType != 0) {
			return nil, fmt.Errorf("%w: type table entry %d has unknown bits set", ErrCorruptRecord, i)
		}
		d.types[i].typeKey = k
		pos += ttEntrySize
	}
	ti := u16(buf[pos:])
	if ti >= tt {
		return nil, fmt.Errorf("%w: root type index %d of %d", ErrCorruptRecord, ti, tt)
	}
	rec := &Record{ParentRID: records.DecodeRID(buf[pos+2 : pos+10])}
	root, err := d.node(ti, pos, pos+StandaloneHeaderSize, len(buf), buf[1]&rootFusedFlag != 0, true)
	if err != nil {
		return nil, err
	}
	if err := checkTableExact(d.types); err != nil {
		return nil, err
	}
	rec.Root = root
	return rec, nil
}

// node decodes the node of type ti whose header is at hdrOff and whose
// content is buf[start:end) — a fused element's text, when fused is set.
func (d *legacy) node(ti, hdrOff, start, end int, fused, root bool) (*Node, error) {
	d.types[ti].used = true
	k := d.types[ti].typeKey
	n := &Node{Kind: Kind(k.kindFlags & kindMask), Label: k.label, Scaffold: k.kindFlags&scaffoldFlag != 0, LitType: k.litType}
	if fused {
		if d.version != legacyVersion3 || n.Kind != KindAggregate || n.Scaffold {
			return nil, fmt.Errorf("%w: fused mark on a node that cannot carry it", ErrCorruptRecord)
		}
		return n.AppendChild(NewTextLiteral(string(d.buf[start:end]))), nil
	}
	switch n.Kind {
	case KindLiteral:
		n.Payload = append([]byte{}, d.buf[start:end]...)
	case KindProxy:
		if end-start != records.RIDSize {
			return nil, fmt.Errorf("%w: proxy content %d bytes", ErrCorruptRecord, end-start)
		}
		if n.Target = records.DecodeRID(d.buf[start:end]); n.Target.IsNil() {
			return nil, fmt.Errorf("%w: proxy with nil target", ErrCorruptRecord)
		}
	case KindAggregate:
		if n.Scaffold && !root {
			return nil, fmt.Errorf("%w: embedded scaffolding aggregate", ErrCorruptRecord)
		}
		for p := start; p < end; {
			if p+d.hdr > end {
				return nil, fmt.Errorf("%w: truncated embedded header", ErrCorruptRecord)
			}
			cti, size := u16(d.buf[p:]), u16(d.buf[p+2:])
			cs := size &^ legacyFused
			if cti >= len(d.types) || p+d.hdr+cs > end {
				return nil, fmt.Errorf("%w: embedded header at %d", ErrCorruptRecord, p)
			}
			if d.version == legacyVersion1 && u16(d.buf[p+4:]) != hdrOff {
				return nil, fmt.Errorf("%w: parent offset %d, want %d", ErrCorruptRecord, u16(d.buf[p+4:]), hdrOff)
			}
			c, err := d.node(cti, p, p+d.hdr, p+d.hdr+cs, size != cs, false)
			if err != nil {
				return nil, err
			}
			n.AppendChild(c)
			p += d.hdr + cs
		}
		if d.version == legacyVersion3 && n.FusedText() != nil {
			return nil, fmt.Errorf("%w: unfused text-only element", ErrCorruptRecord)
		}
	default:
		return nil, fmt.Errorf("%w: node kind %d", ErrCorruptRecord, n.Kind)
	}
	return n, nil
}
