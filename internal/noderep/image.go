package noderep

import (
	"sync"

	"natix/internal/dict"
	"natix/internal/records"
	"natix/internal/xmlkit"
)

// Reading a record where it lies. A stored image lists its nodes in
// pre-order: an embedded node is its header — its type and, unless it is
// a proxy, its size — and then its content, and an aggregate's content
// is its children, header and content, back to back. OpenImage reads
// every header once, with all of readHeader's checks, and records what it
// read in the image's node table: per node, in pre-order, its content
// bounds, its type, its fused mark, the index of the node behind its
// subtree and whether its text needs escaping; and the facade order,
// facade index to node. Reading then steps by index and re-reads no
// header: an aggregate's first child is the node behind it, a node's next
// sibling the index it stores, the nodes of a subtree the indexes up to
// the one behind it, and a facade index one load. The query path
// resolves postings, navigates and reads text and markup this way, with
// no Node in sight. The write path builds no table: it reads headers where
// they lie (Span), splices (Splice) and decodes (Decode) only what it
// cannot splice. The image is a string: what
// Image reads out of it — a payload, a fused element's text — is a
// substring, which shares the image's memory and needs no copy to outlive
// the read.
//
// OpenImage refuses an image with any header it would refuse mid-walk —
// a type index outside the table, content that crosses the image's end
// or the content enclosing it, a size not in its shortest form — so no
// image it accepts makes Image panic or loop. Decode holds an image to
// more than that (every table entry cited, every text-only element
// fused); on an image Decode accepts, both read the same nodes.

// maxImageSize bounds the images OpenImage accepts, so that every offset
// into one fits the 15 bits a table word leaves beside its flag. A record
// lies in one page and pagedev.MaxPageSize is 32 KB, so a stored image is
// always shorter.
const maxImageSize = 1<<15 - 1

// A node's table entry is entryWords words.
const (
	eStart = iota // content start; topBit: the node is fused
	eEnd          // content end; topBit: the text is clean
	eNext         // index of the node behind the subtree
	eType         // type-table index; proxyWide for a proxy
	entryWords

	offMask = 1<<15 - 1
	topBit  = 1 << 15 // in a facade word: the text of the fused element
)

// Image is a record image opened for reading in place: the string it was
// opened on and its node table.
type Image struct {
	buf     string
	types   int      // type-table entries
	nodes   int      // nodes in the table
	proxies bool     // the record holds a proxy, which cites no type-table entry
	table   []uint16 // nodes entries of entryWords words, then one word per facade
}

// ImageNode is one node read out of an image: its type, where its content
// lies and where it stands in the image's node table. The text of a fused
// element — the second of the two nodes Decode expands it into — is an
// ImageNode of its own (ToText), at its element's index. The readers fill
// an ImageNode in place, where its user keeps it.
type ImageNode struct {
	Start, End int32 // content: payload, proxy target, children, or a fused element's text
	Index      int32 // the node's place in the table, in pre-order
	Next       int32 // the index behind the node's subtree
	Label      dict.LabelID
	Kind       Kind
	LitType    LitType // literals only
	Scaffold   bool
	Fused      bool // a text-only element: its content is its text's payload
	Clean      bool // a literal's or fused element's payload holds no '<', '>' or '&'
}

// tableScratch is where OpenImage builds a table before it knows its
// size, and notes whether the image holds a proxy.
type tableScratch struct {
	nodes, facades []uint16
	proxies        bool
}

var scratchPool = sync.Pool{New: func() any { return new(tableScratch) }}

// OpenImage reads the record header of buf and every node header behind
// it, refusing the image with ErrCorruptRecord on the first it would not
// read, and returns the image with its node table, built in one
// allocation of its exact size.
func OpenImage(buf string) (*Image, error) {
	if len(buf) < recHeaderSize+StandaloneHeaderSize || len(buf) > maxImageSize ||
		buf[0] != FormatVersion || buf[1]&^(rootFusedFlag|wideFlag) != 0 {
		return nil, ErrCorruptRecord
	}
	wide, types := buf[1]&wideFlag != 0, u16(buf[2:])
	root := recHeaderSize + ttEntrySize*types
	if root+StandaloneHeaderSize > len(buf) || wide != (types > narrowTypes) {
		return nil, ErrCorruptRecord
	}
	sc := scratchPool.Get().(*tableScratch)
	defer scratchPool.Put(sc)
	if !index(sc, buf, wide, types, root) {
		return nil, ErrCorruptRecord
	}
	im := &Image{buf: buf, types: types, nodes: len(sc.nodes) / entryWords, proxies: sc.proxies}
	im.table = make([]uint16, len(sc.nodes)+len(sc.facades))
	copy(im.table[copy(im.table, sc.nodes):], sc.facades)
	return im, nil
}

// index walks the image buf, whose standalone header is at root, in
// pre-order and appends the table entry of every node to sc.nodes and its
// facades to sc.facades. It reports false on the first header it cannot
// read, and keeps what it appended in sc only when it read them all. An
// aggregate's next word links to the aggregate enclosing it (plus one; 0
// for none) until its content has been walked.
func index(sc *tableScratch, buf string, wide bool, types, root int) bool {
	nodes, facades, proxies := sc.nodes[:0], sc.facades[:0], false
	ti := int(buf[root])
	if ti >= types {
		return false
	}
	h := header{ti: ti, kf: buf[recHeaderSize+ttEntrySize*ti] & (kindMask | scaffoldFlag), fused: buf[1]&rootFusedFlag != 0,
		start: root + StandaloneHeaderSize, cs: len(buf) - root - StandaloneHeaderSize}
	switch kind := Kind(h.kf & kindMask); {
	case kind == KindInvalid, kind == KindProxy,
		h.fused && (kind != KindAggregate || h.kf&scaffoldFlag != 0):
		return false
	}
	parent := -1 // the innermost aggregate whose content is being walked
	for {
		i := len(nodes) / entryWords
		start, end := uint16(h.start), uint16(h.end())
		kind := Kind(h.kf & kindMask)
		if h.fused {
			start |= topBit
		}
		if (kind == KindLiteral || h.fused) && xmlkit.IsCleanText(buf[h.start:h.end()]) {
			end |= topBit
		}
		typ := uint16(proxyWide)
		if h.ti >= 0 {
			typ = uint16(h.ti)
		} else {
			proxies = true
		}
		nodes = append(nodes, start, end, uint16(i+1), typ)
		if kind == KindLiteral || kind == KindAggregate && h.kf&scaffoldFlag == 0 {
			facades = append(facades, uint16(i))
			if h.fused {
				facades = append(facades, uint16(i)|topBit)
			}
		}
		p := h.end()
		if h.aggregate() {
			nodes[i*entryWords+eNext], parent, p = uint16(parent+1), i, h.start
		}
		// Close every aggregate whose content ends here.
		for parent >= 0 && p == int(nodes[parent*entryWords+eEnd]&offMask) {
			e := nodes[parent*entryWords:]
			parent, e[eNext] = int(e[eNext])-1, uint16(len(nodes)/entryWords)
		}
		if parent < 0 {
			sc.nodes, sc.facades, sc.proxies = nodes, facades, proxies
			return true
		}
		if !readHeader(buf, wide, types, p, int(nodes[parent*entryWords+eEnd]&offMask), &h) {
			return false
		}
	}
}

// Data returns the image Image was opened on.
func (im *Image) Data() string { return im.buf }

// Footprint returns the bytes the image and its table take.
func (im *Image) Footprint() int { return len(im.buf) + 2*len(im.table) }

// Node reads node i of the table into n: node 0 is the record's
// standalone root, whose content runs to the end of the image, and the
// nodes of any subtree are the indexes from its root up to its Next.
//
//natix:noalloc
func (im *Image) Node(n *ImageNode, i int) {
	e := im.table[i*entryWords : i*entryWords+entryWords]
	n.Start, n.End = int32(e[eStart]&offMask), int32(e[eEnd]&offMask)
	n.Index, n.Next = int32(i), int32(e[eNext])
	n.Fused, n.Clean = e[eStart]&topBit != 0, e[eEnd]&topBit != 0
	k := proxyKey
	if e[eType] != proxyWide {
		k = entryKey(im.buf[recHeaderSize+ttEntrySize*int(e[eType]):])
	}
	n.Kind, n.LitType, n.Label = Kind(k.kindFlags&kindMask), k.litType, k.label
	n.Scaffold = k.kindFlags&scaffoldFlag != 0
}

// Facade reads facade node idx into n and reports false, leaving n as it
// was, when the image has no such node. The facade nodes are the nodes a
// facade index counts: literals and facade aggregates in pre-order, the
// text of a fused element right behind it.
//
//natix:noalloc
func (im *Image) Facade(n *ImageNode, idx int) bool {
	f := im.table[im.nodes*entryWords:]
	if idx < 0 || idx >= len(f) {
		return false
	}
	w := f[idx]
	im.Node(n, int(w&offMask))
	if w&topBit != 0 {
		n.ToText()
	}
	return true
}

// ChildHas reports whether a node stored in n's content — a child, not a
// deeper node — has a type pred accepts.
//
//natix:noalloc
func (im *Image) ChildHas(n *ImageNode, pred func(Kind, dict.LabelID) bool) bool {
	for i := int(n.Index) + 1; i < int(n.Next); i = int(im.table[i*entryWords+eNext]) {
		if pred(im.typeAt(int(im.table[i*entryWords+eType]))) {
			return true
		}
	}
	return false
}

// TableHas reports whether the image's type table holds a type pred
// accepts — the proxies' type, which the table does not list, when the
// record holds a proxy: a pass over the table, not over the nodes, so a
// type the table does not hold rules out every node of the record at
// once.
//
//natix:noalloc
func (im *Image) TableHas(pred func(Kind, dict.LabelID) bool) bool {
	if im.proxies && pred(KindProxy, dict.Scaffold) {
		return true
	}
	for i := range im.types {
		if pred(im.typeAt(i)) {
			return true
		}
	}
	return false
}

// typeAt returns the kind and label of type-table entry i, i < im.types,
// or of a proxy for proxyWide.
func (im *Image) typeAt(i int) (Kind, dict.LabelID) {
	if i == proxyWide {
		return KindProxy, dict.Scaffold
	}
	e := im.buf[recHeaderSize+ttEntrySize*i:]
	e = e[:ttEntrySize]
	return Kind(e[0] & kindMask), dict.LabelID(u16(e[1:]))
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
	if n.Kind != KindProxy || n.End-n.Start != ProxyContentSize {
		return records.NilRID, ErrCorruptRecord
	}
	rid := records.DecodeRID(im.buf[n.Start : n.Start+records.RIDSize])
	if rid.IsNil() {
		return records.NilRID, ErrCorruptRecord
	}
	return rid, nil
}
