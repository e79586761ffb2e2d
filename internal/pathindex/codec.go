package pathindex

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"natix/internal/dict"
	"natix/internal/pagedev"
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
//	postings blob ("NXPP") under a version 3 summary: count uvarint,
//	    then runs until count postings are read. A run is the postings
//	    of one record under one summary path, facade indices ascending:
//	    pageDelta varint (against the previous run's page, 0 before the
//	    first), slot, path, n ≥ 1 uvarints, then n × (seqDelta, size,
//	    localDelta uvarints) — seq absolute for the list's first posting
//	    and a delta ≥ 1 after it, local absolute at the head of a run
//	    and a delta inside it.
//	postings blob ("NXPP") under a version 2 summary, read only:
//	    count u32, count × (seq u32, size u32, rid 8, local u16, path u32)
//	catalog blob ("NXPC"): count u32, count × (len u16, name, summary RID 8)
//
// Lists are born in document order and a record covers a contiguous
// pre-order range, so a record's postings sit side by side: RID and
// path are said once per run and a posting shrinks to three small
// numbers. Version 3 is the only one written; a store from before it
// keeps its version 2 indexes until ReindexDocument rewrites them.
const (
	summaryMagic  = "NXPS"
	postingsMagic = "NXPP"
	catalogMagic  = "NXPC"
	indexVersion  = 3
	fixedVersion  = 2 // fixed-width postings, read only

	pathNodeSize = 12
	dirEntrySize = 14
	postingSize  = 22 // version 2
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
	version uint16     // postings layout of the lists in dir
	paths   []PathNode // paths[0] unused; PathID indexes
	root    dict.LabelID
	nodes   uint32
	dir     map[dict.LabelID]dirEntry
}

// encodeSummary appends s's summary blob to out.
func encodeSummary(out []byte, s *summary) []byte {
	labels := s.labels()
	out = slices.Grow(out, 16+(len(s.paths)-1)*pathNodeSize+4+len(labels)*dirEntrySize)
	out = append(out, summaryMagic...)
	out = binary.LittleEndian.AppendUint16(out, s.version)
	out = binary.LittleEndian.AppendUint16(out, uint16(s.root))
	out = binary.LittleEndian.AppendUint32(out, s.nodes)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(s.paths)-1))
	for _, pn := range s.paths[1:] {
		out = binary.LittleEndian.AppendUint32(out, uint32(pn.Parent))
		out = binary.LittleEndian.AppendUint16(out, uint16(pn.Label))
		out = binary.LittleEndian.AppendUint16(out, pn.Depth)
		out = binary.LittleEndian.AppendUint32(out, pn.Count)
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(labels)))
	var rid [records.RIDSize]byte
	for _, l := range labels {
		e := s.dir[l]
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
	s := &summary{
		version: binary.LittleEndian.Uint16(b[4:]),
		paths:   make([]PathNode, 1),
		root:    dict.LabelID(binary.LittleEndian.Uint16(b[6:])),
		nodes:   binary.LittleEndian.Uint32(b[8:]),
		dir:     make(map[dict.LabelID]dirEntry),
	}
	if s.version != indexVersion && s.version != fixedVersion {
		return nil, fmt.Errorf("%w: version %d", ErrCorrupt, s.version)
	}
	numPaths := int(binary.LittleEndian.Uint32(b[12:]))
	pos := 16
	if pos+numPaths*pathNodeSize > len(b) {
		return nil, fmt.Errorf("%w: truncated summary", ErrCorrupt)
	}
	carried := make(map[dict.LabelID]uint64) // occurrences per label, over all paths
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
		// paths[0], the parent of the root path, has depth 0.
		if int(pn.Depth) != int(s.paths[pn.Parent].Depth)+1 {
			return nil, fmt.Errorf("%w: summary path %d at depth %d below depth %d", ErrCorrupt, i+1, pn.Depth, s.paths[pn.Parent].Depth)
		}
		carried[pn.Label] += uint64(pn.Count)
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
		e := dirEntry{
			count: binary.LittleEndian.Uint32(b[pos+2:]),
			rid:   records.DecodeRID(b[pos+6 : pos+14]),
		}
		if uint64(e.count) != carried[label] {
			return nil, fmt.Errorf("%w: directory lists %d postings of label %d, summary counts %d", ErrCorrupt, e.count, label, carried[label])
		}
		s.dir[label] = e
		pos += dirEntrySize
	}
	for label, n := range carried {
		if _, ok := s.dir[label]; !ok && n > 0 {
			return nil, fmt.Errorf("%w: no directory entry for label %d", ErrCorrupt, label)
		}
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

// checkPostings holds a list to what every stored list is: ascending
// in seq (which Within's binary search relies on), inside the
// document's seq space, on summary paths that exist, at RIDs the
// 8-byte encoding can carry. Put refuses a list that is not, and both
// decoders end on it.
func checkPostings(list []Posting, numPaths int, nodes uint32) error {
	for i, p := range list {
		if p.Path == NilPath || int64(p.Path) > int64(numPaths) || i > 0 && p.Seq <= list[i-1].Seq ||
			uint64(p.Seq)+uint64(p.Size) >= uint64(nodes) || p.RID.Page > pagedev.MaxPageNo {
			return fmt.Errorf("%w: posting %d, %+v, is out of seq order or outside %d paths and %d nodes", ErrCorrupt, i, p, numPaths, nodes)
		}
	}
	return nil
}

// runLen returns the length of the run at the head of list (which must
// not be empty): a run ends where the record or the path changes or
// the facade index does not ascend.
func runLen(list []Posting) int {
	n := 1
	for n < len(list) && list[n].RID == list[0].RID && list[n].Path == list[0].Path && list[n].Local > list[n-1].Local {
		n++
	}
	return n
}

// Runs returns the number of runs list is stored as.
func Runs(list []Posting) int {
	runs := 0
	for len(list) > 0 {
		list = list[runLen(list):]
		runs++
	}
	return runs
}

// encodePostings appends list's postings blob to out. Any list in seq
// order encodes; one in document order encodes small.
func encodePostings(out []byte, list []Posting) []byte {
	out = append(out, postingsMagic...)
	out = binary.AppendUvarint(out, uint64(len(list)))
	var page pagedev.PageNo
	var seq uint32
	for len(list) > 0 {
		head, n := list[0], runLen(list)
		out = binary.AppendVarint(out, int64(head.RID.Page)-int64(page))
		out = binary.AppendUvarint(out, uint64(head.RID.Slot))
		out = binary.AppendUvarint(out, uint64(head.Path))
		out = binary.AppendUvarint(out, uint64(n))
		page = head.RID.Page
		var local uint16
		for _, p := range list[:n] {
			out = binary.AppendUvarint(out, uint64(p.Seq-seq))
			out = binary.AppendUvarint(out, uint64(p.Size))
			out = binary.AppendUvarint(out, uint64(p.Local-local))
			seq, local = p.Seq, p.Local
		}
		list = list[n:]
	}
	return out
}

// decodePostings decodes a postings blob in the layout the summary's
// version names and holds the list to checkPostings.
func decodePostings(version uint16, b []byte, numPaths int, nodes uint32) ([]Posting, error) {
	if len(b) < 5 || string(b[:4]) != postingsMagic {
		return nil, fmt.Errorf("%w: bad postings magic", ErrCorrupt)
	}
	decode := decodeRunPostings
	if version == fixedVersion {
		decode = decodeFixedPostings
	}
	list, err := decode(b[4:])
	if err != nil {
		return nil, err
	}
	return list, checkPostings(list, numPaths, nodes)
}

// varints reads the numbers of a postings blob; the first malformed or
// missing one sets bad and everything after reads as 0.
type varints struct {
	b   []byte
	bad bool
}

// uvarint reads a number that must not exceed max. Most are one byte
// (a delta, a leaf's size), which need no call.
func (r *varints) uvarint(max uint64) uint64 {
	v, n := uint64(0), 0
	if len(r.b) > 0 && r.b[0] < 0x80 {
		v, n = uint64(r.b[0]), 1
	} else {
		v, n = binary.Uvarint(r.b)
	}
	if n <= 0 || v > max {
		r.bad, r.b = true, nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

func decodeRunPostings(b []byte) ([]Posting, error) {
	r := varints{b: b}
	// A posting is at least three bytes, so a count the blob cannot hold
	// is refused before anything is allocated for it.
	count := r.uvarint(uint64(len(b)) / 3)
	list := make([]Posting, 0, count)
	var page, seq uint64
	for uint64(len(list)) < count && !r.bad {
		// The delta is zigzag-coded (binary.AppendVarint). A page that
		// wraps below zero lands above MaxPageNo; checkPostings finds it.
		zz := r.uvarint(math.MaxUint64)
		page += zz>>1 ^ -(zz & 1)
		rid := records.RID{Page: pagedev.PageNo(page), Slot: uint16(r.uvarint(math.MaxUint16))}
		path := PathID(r.uvarint(math.MaxUint32))
		run := r.uvarint(count - uint64(len(list)))
		r.bad = r.bad || run == 0
		var local uint64
		for ; run > 0 && !r.bad; run-- {
			seq += r.uvarint(math.MaxUint32 - seq)
			size := r.uvarint(math.MaxUint32)
			local += r.uvarint(math.MaxUint16 - local)
			list = append(list, Posting{Seq: uint32(seq), Size: uint32(size), RID: rid, Local: uint16(local), Path: path})
		}
	}
	if r.bad || len(r.b) != 0 {
		return nil, fmt.Errorf("%w: malformed postings", ErrCorrupt)
	}
	return list, nil
}

// decodeFixedPostings reads the fixed-width layout of a version 2
// index. Nothing writes it any more.
func decodeFixedPostings(b []byte) ([]Posting, error) {
	if len(b) < 4 || uint64(len(b)-4) != uint64(binary.LittleEndian.Uint32(b))*postingSize {
		return nil, fmt.Errorf("%w: fixed-width postings blob of %d bytes", ErrCorrupt, len(b))
	}
	list := make([]Posting, (len(b)-4)/postingSize)
	b = b[4:]
	for j := range list {
		list[j] = Posting{
			Seq:   binary.LittleEndian.Uint32(b),
			Size:  binary.LittleEndian.Uint32(b[4:]),
			RID:   records.DecodeRID(b[8:16]),
			Local: binary.LittleEndian.Uint16(b[16:]),
			Path:  PathID(binary.LittleEndian.Uint32(b[18:])),
		}
		b = b[postingSize:]
	}
	return list, nil
}
