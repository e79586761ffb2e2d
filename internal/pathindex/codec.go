package pathindex

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"natix/internal/dict"
	"natix/internal/records"
)

// On-disk layout. Each document's index is a *summary blob* plus one
// *postings blob per element label*, so a query only reads the posting
// lists of the labels its steps name — the summary and a handful of
// small blobs instead of one monolithic index.
//
//	summary blob ("NXPS"): version u16, root label u16, nodes u32,
//	    numPaths u32, numPaths × (parent u32, label u16, depth u16, count u32),
//	    numLabels u32, numLabels × (label u16, postings u32, blob RID 8)
//	postings blob ("NXPP"): count u32,
//	    count × (seq u32, size u32, rid 8, local u16, path u32)
//	catalog blob ("NXPC"): count u32, count × (len u16, name, summary RID 8)
const (
	summaryMagic  = "NXPS"
	postingsMagic = "NXPP"
	catalogMagic  = "NXPC"
	indexVersion  = 2

	pathNodeSize = 12
	dirEntrySize = 14
	postingSize  = 22
)

// ErrCorrupt reports an undecodable index blob.
var ErrCorrupt = errors.New("pathindex: corrupt index")

// dirEntry locates one label's posting list.
type dirEntry struct {
	count uint32
	rid   records.RID
}

// summary is the decoded form of a summary blob.
type summary struct {
	paths []PathNode // paths[0] unused; PathID indexes
	root  dict.LabelID
	nodes uint32
	dir   map[dict.LabelID]dirEntry
}

// encodeSummary appends x's summary blob to out.
func encodeSummary(out []byte, x *Index, dir map[dict.LabelID]dirEntry) []byte {
	labels := x.PostingLabels()
	out = slices.Grow(out, 16+x.NumPaths()*pathNodeSize+4+len(labels)*dirEntrySize)
	out = append(out, summaryMagic...)
	out = binary.LittleEndian.AppendUint16(out, indexVersion)
	out = binary.LittleEndian.AppendUint16(out, uint16(x.root))
	out = binary.LittleEndian.AppendUint32(out, x.nodes)
	out = binary.LittleEndian.AppendUint32(out, uint32(x.NumPaths()))
	for _, pn := range x.paths[1:] {
		out = binary.LittleEndian.AppendUint32(out, uint32(pn.Parent))
		out = binary.LittleEndian.AppendUint16(out, uint16(pn.Label))
		out = binary.LittleEndian.AppendUint16(out, pn.Depth)
		out = binary.LittleEndian.AppendUint32(out, pn.Count)
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(labels)))
	var rid [records.RIDSize]byte
	for _, l := range labels {
		e := dir[l]
		out = binary.LittleEndian.AppendUint16(out, uint16(l))
		out = binary.LittleEndian.AppendUint32(out, e.count)
		e.rid.Put(rid[:])
		out = append(out, rid[:]...)
	}
	return out
}

func decodeSummary(b []byte) (*summary, error) {
	if len(b) < 16 || string(b[:4]) != summaryMagic {
		return nil, fmt.Errorf("%w: bad summary magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(b[4:]); v != indexVersion {
		return nil, fmt.Errorf("%w: version %d", ErrCorrupt, v)
	}
	s := &summary{
		paths: make([]PathNode, 1),
		root:  dict.LabelID(binary.LittleEndian.Uint16(b[6:])),
		nodes: binary.LittleEndian.Uint32(b[8:]),
		dir:   make(map[dict.LabelID]dirEntry),
	}
	numPaths := int(binary.LittleEndian.Uint32(b[12:]))
	pos := 16
	if pos+numPaths*pathNodeSize > len(b) {
		return nil, fmt.Errorf("%w: truncated summary", ErrCorrupt)
	}
	for i := 0; i < numPaths; i++ {
		pn := PathNode{
			Parent: PathID(binary.LittleEndian.Uint32(b[pos:])),
			Label:  dict.LabelID(binary.LittleEndian.Uint16(b[pos+4:])),
			Depth:  binary.LittleEndian.Uint16(b[pos+6:]),
			Count:  binary.LittleEndian.Uint32(b[pos+8:]),
		}
		if int(pn.Parent) >= len(s.paths) {
			return nil, fmt.Errorf("%w: summary parent %d out of order", ErrCorrupt, pn.Parent)
		}
		s.paths = append(s.paths, pn)
		pos += pathNodeSize
	}
	if pos+4 > len(b) {
		return nil, fmt.Errorf("%w: truncated directory", ErrCorrupt)
	}
	numLabels := int(binary.LittleEndian.Uint32(b[pos:]))
	pos += 4
	if pos+numLabels*dirEntrySize > len(b) {
		return nil, fmt.Errorf("%w: truncated directory", ErrCorrupt)
	}
	for i := 0; i < numLabels; i++ {
		label := dict.LabelID(binary.LittleEndian.Uint16(b[pos:]))
		s.dir[label] = dirEntry{
			count: binary.LittleEndian.Uint32(b[pos+2:]),
			rid:   records.DecodeRID(b[pos+6 : pos+14]),
		}
		pos += dirEntrySize
	}
	return s, nil
}

// labels returns the directory's labels in sorted order.
func (s *summary) labels() []dict.LabelID {
	out := make([]dict.LabelID, 0, len(s.dir))
	for l := range s.dir {
		out = append(out, l)
	}
	slices.Sort(out)
	return out
}

// encodePostings appends list's postings blob to out.
func encodePostings(out []byte, list []Posting) []byte {
	out = slices.Grow(out, 8+len(list)*postingSize)
	out = append(out, postingsMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(list)))
	var rid [records.RIDSize]byte
	for _, p := range list {
		out = binary.LittleEndian.AppendUint32(out, p.Seq)
		out = binary.LittleEndian.AppendUint32(out, p.Size)
		p.RID.Put(rid[:])
		out = append(out, rid[:]...)
		out = binary.LittleEndian.AppendUint16(out, p.Local)
		out = binary.LittleEndian.AppendUint32(out, uint32(p.Path))
	}
	return out
}

// decodePostings decodes a postings blob, validating path references
// against the summary's path count.
func decodePostings(b []byte, numPaths int) ([]Posting, error) {
	if len(b) < 8 || string(b[:4]) != postingsMagic {
		return nil, fmt.Errorf("%w: bad postings magic", ErrCorrupt)
	}
	count := int(binary.LittleEndian.Uint32(b[4:]))
	pos := 8
	if pos+count*postingSize > len(b) {
		return nil, fmt.Errorf("%w: truncated postings", ErrCorrupt)
	}
	list := make([]Posting, count)
	for j := range list {
		list[j] = Posting{
			Seq:   binary.LittleEndian.Uint32(b[pos:]),
			Size:  binary.LittleEndian.Uint32(b[pos+4:]),
			RID:   records.DecodeRID(b[pos+8 : pos+16]),
			Local: binary.LittleEndian.Uint16(b[pos+16:]),
			Path:  PathID(binary.LittleEndian.Uint32(b[pos+18:])),
		}
		if list[j].Path == NilPath || int(list[j].Path) > numPaths {
			return nil, fmt.Errorf("%w: posting path %d of %d", ErrCorrupt, list[j].Path, numPaths)
		}
		pos += postingSize
	}
	return list, nil
}
