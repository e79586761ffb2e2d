package noderep

import (
	"fmt"

	"natix/internal/dict"
	"natix/internal/records"
)

// The record formats before 5, which only Upgrade reads. Their record
// header, 4-byte type-table entries — kindFlags(1) label(2) litType(1),
// a proxy's type among them — and 10-byte standalone header —
// typeIdx(2) parentRID(8) — are the same in all four, and a proxy's
// content is its target's RID alone. Format 4's embedded headers are
// format 5's (a proxy citing its table entry, under 128 entries when
// narrow); the older ones have fixed widths:
//
//	version 3: embedded := typeIdx(2) fused(1 bit, the top one) contentSize(15 bits) content
//	version 2: embedded := typeIdx(2) contentSize(16 bits) content
//	version 1: embedded := typeIdx(2) contentSize(16 bits) parentOff(2) content
//
// with no wide flag, the rootFused flag in version 3 only, and version
// 1's parentOff the offset of the parent's header. Versions 3 and 4
// fuse text-only elements as format 5 does; the older two never did.
const (
	legacyVersion4  = 4
	legacyVersion3  = 3
	legacyVersion1  = 1
	legacyFused     = 0x8000
	legacyEntrySize = 4
	legacyRootSize  = 10
	legacyNarrow    = 1 << 7
)

// Upgrade reads a record image of any format version this package has
// written and returns its tree and whether the image is of a version
// older than FormatVersion. The proxies of such a tree count nothing
// (Count 0): a count describes the proxy's target, which only the tree
// manager can read, and which it fills in before it encodes the tree in
// format 5 (core's Tree.UpgradeRecords). An image Decode (for format 5)
// or the legacy decoder rejects is an ErrCorruptRecord, as is a legacy
// tree the format 5 encoder would refuse.
func Upgrade(img []byte) (*Record, bool, error) {
	if len(img) > 0 && img[0] == FormatVersion {
		rec, err := Decode(img)
		return rec, false, err
	}
	rec, err := decodeLegacy(img)
	if err != nil {
		return nil, false, err
	}
	if err := rec.Root.Validate(); err != nil {
		return nil, false, fmt.Errorf("%w: %w", ErrCorruptRecord, err)
	}
	return rec, true, nil
}

// legacy is the state of one decodeLegacy.
type legacy struct {
	buf     []byte
	types   []tableEntry
	hdr     int  // embedded header size; 0 for format 4's
	wide    bool // format 4 only: two-byte type indexes
	version byte // 1 to 4
}

// decodeLegacy parses an image of format version 1 to 4 as the runtime
// decoder of those versions did: sizes inside their parents, type
// indexes inside the table and every entry cited once, version 1's
// parent offsets, in versions 3 and 4 the mark on facade aggregates only
// and every text-only element fused, and in version 4 the shortest size
// forms and the wide flag only where the table needs it.
func decodeLegacy(buf []byte) (*Record, error) {
	if len(buf) < recHeaderSize+legacyRootSize || buf[0] < legacyVersion1 || buf[0] > legacyVersion4 {
		return nil, fmt.Errorf("%w: not a record image of format 1 to 4", ErrCorruptRecord)
	}
	d := legacy{buf: buf, hdr: 4, version: buf[0]}
	flags := byte(0)
	switch d.version {
	case legacyVersion4:
		flags, d.hdr = rootFusedFlag|wideFlag, 0
	case legacyVersion3:
		flags = rootFusedFlag
	case legacyVersion1:
		d.hdr = 6
	}
	tt := u16(buf[2:])
	d.wide = buf[1]&wideFlag != 0
	if buf[1]&^flags != 0 || d.version == legacyVersion4 && d.wide != (tt > legacyNarrow) {
		return nil, fmt.Errorf("%w: flags %#x in a version %d image", ErrCorruptRecord, buf[1], buf[0])
	}
	pos := recHeaderSize
	if pos+legacyEntrySize*tt+legacyRootSize > len(buf) {
		return nil, fmt.Errorf("%w: truncated type table", ErrCorruptRecord)
	}
	d.types = make([]tableEntry, tt)
	for i := range d.types {
		k := typeKey{kindFlags: buf[pos], label: dict.LabelID(u16(buf[pos+1:])), litType: LitType(buf[pos+3])}
		if k.kindFlags&^(kindMask|scaffoldFlag) != 0 || (Kind(k.kindFlags&kindMask) != KindLiteral && k.litType != 0) {
			return nil, fmt.Errorf("%w: type table entry %d has unknown bits set", ErrCorruptRecord, i)
		}
		d.types[i].typeKey = k
		pos += legacyEntrySize
	}
	ti := u16(buf[pos:])
	if ti >= tt {
		return nil, fmt.Errorf("%w: root type index %d of %d", ErrCorruptRecord, ti, tt)
	}
	rec := &Record{ParentRID: records.DecodeRID(buf[pos+2 : pos+legacyRootSize])}
	root, err := d.node(ti, pos, pos+legacyRootSize, len(buf), buf[1]&rootFusedFlag != 0, true)
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
		if d.version < legacyVersion3 || n.Kind != KindAggregate || n.Scaffold {
			return nil, fmt.Errorf("%w: fused mark on a node that cannot carry it", ErrCorruptRecord)
		}
		return n.AppendChild(NewTextLiteral(string(d.buf[start:end]))), nil
	}
	switch n.Kind {
	case KindLiteral:
		n.Payload = append([]byte{}, d.buf[start:end]...)
	case KindProxy:
		if k != proxyKey {
			return nil, fmt.Errorf("%w: proxy type %+v", ErrCorruptRecord, k)
		}
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
			cti, cstart, cs, cfused, ok := d.header(p, end)
			if !ok {
				return nil, fmt.Errorf("%w: embedded header at %d", ErrCorruptRecord, p)
			}
			if d.version == legacyVersion1 && u16(d.buf[p+4:]) != hdrOff {
				return nil, fmt.Errorf("%w: parent offset %d, want %d", ErrCorruptRecord, u16(d.buf[p+4:]), hdrOff)
			}
			c, err := d.node(cti, p, cstart, cstart+cs, cfused, false)
			if err != nil {
				return nil, err
			}
			n.AppendChild(c)
			p = cstart + cs
		}
		if d.version >= legacyVersion3 && n.FusedText() != nil {
			return nil, fmt.Errorf("%w: unfused text-only element", ErrCorruptRecord)
		}
	default:
		return nil, fmt.Errorf("%w: node kind %d", ErrCorruptRecord, n.Kind)
	}
	return n, nil
}

// header reads the embedded header at p, inside content that ends at
// end: its type index, where its content starts, the content's size and
// the fused mark, or false for a header or content that crosses end or a
// type not in the table — and in a format 4 image, a mark on a node that
// cannot carry it or a size not in its shortest form.
func (d *legacy) header(p, end int) (ti, start, cs int, fused, ok bool) {
	buf := d.buf
	if d.hdr > 0 {
		if p+d.hdr > end {
			return
		}
		size := u16(buf[p+2:])
		ti, start, cs = u16(buf[p:]), p+d.hdr, size&^legacyFused
		return ti, start, cs, size != cs, ti < len(d.types) && start+cs <= end
	}
	if !d.wide {
		if p >= end {
			return
		}
		ti, p = int(buf[p]), p+1
		fused, ti = ti&narrowFused != 0, ti&^narrowFused
	} else {
		if p+2 > end {
			return
		}
		ti, p = u16(buf[p:]), p+2
		fused, ti = ti&wideFused != 0, ti&^wideFused
	}
	if ti >= len(d.types) {
		return
	}
	kf := d.types[ti].kindFlags
	switch kind := Kind(kf & kindMask); {
	case kind == KindProxy && !fused:
		cs = records.RIDSize
	case kind == KindAggregate && !fused:
		if p+2 > end {
			return
		}
		cs, p = u16(buf[p:]), p+2
	case kind == KindLiteral && !fused, kind == KindAggregate && kf&scaffoldFlag == 0:
		if p >= end {
			return
		}
		cs, p = int(buf[p]), p+1
		if cs&longSize != 0 {
			if p >= end {
				return
			}
			cs, p = cs&^longSize|int(buf[p])<<7, p+1
			if cs < longSize {
				return
			}
		}
	default:
		return
	}
	return ti, p, cs, fused, p+cs <= end
}
