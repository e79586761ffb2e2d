// Package noderep defines the physical node model of NATIX (paper §2.3)
// and the binary record format of Appendix A.
//
// Physical nodes are classified three ways:
//
//   - by content: aggregate (inner) nodes, literal (leaf) nodes, and
//     proxy nodes pointing to other records (§2.3.1);
//   - by representation: the standalone object is the root of a record's
//     subtree, every other node is embedded (§2.3.2);
//   - by purpose: facade objects represent logical nodes, scaffolding
//     objects (proxies and helper aggregates) exist only to represent
//     large trees (§2.3.3).
//
// One record stores exactly one subtree. Its byte layout (format
// version 5) is:
//
//	record     := version(1) flags(1) ttCount(2) ttEntry* standalone
//	flags      := 0(6 bits) wide(1 bit) rootFused(1 bit, the lowest)
//	ttEntry    := litType(5 bits, the top ones) scaffold(1 bit) kind(2 bits) label(2)
//	standalone := typeIdx(1) parentRID(8) content
//	embedded   := type size content
//	type       := fused(1 bit, the top one) typeIdx(7 bits)     wide = 0
//	            | typeIdx(15 bits) fused(1 bit, the top one)    wide = 1
//	size       := nothing                                      a proxy
//	            | contentSize(16 bits)                         an aggregate, not fused
//	            | 0(1 bit) contentSize(7 bits)                 a literal or a fused
//	            | 1(1 bit) low(7 bits) high(8 bits)            element: short, long
//	content    := children* | literalPayload | targetRID(8) count(4) | textPayload
//
// Multi-byte fields are little-endian. A standalone header is 9 bytes:
// Appendix A's 10 with a one-byte type index, which the encoder can give
// because the root's type is always among the table's first 127. An
// embedded header is a type index and a size whose width depends on the
// node: a proxy's content is always a RID and a count, so its size is
// implied and its header is 1 byte; a literal and a fused element never
// change size in place, so theirs is one byte under 128 bytes of content
// and two from there (2 or 3 bytes of header); every other aggregate
// keeps a fixed two-byte size (3 bytes), which is what lets a splice
// patch its ancestors' sizes in place. Appendix A's embedded header is 6
// bytes: its 2-byte type index and size and a 2-byte offset to the
// parent's header, which nothing here reads — a record is at most a page
// and is always parsed top-down from its standalone root, which hands
// every node its parent as it goes. A record whose type table has more
// than 127 entries sets the wide flag and spends two bytes on every
// embedded type index.
//
// A proxy cites no table entry: its type index is the reserved all-ones
// one (proxyNarrow, 0x7F; proxyWide, 0x7FFF, in a wide image), which no
// entry takes, so a record takes its first proxy without growing its
// table, the table never holds a proxy, and a proxy is never a record's
// root. Its count is the number of logical children its target
// contributes to the aggregate the proxy stands in: 1 for a target rooted
// in a facade node; for a target rooted in a scaffolding aggregate, the
// sum over that root's children, a nested proxy counting its own count
// (LogicalCount). The count has a fixed width of four bytes, so changing
// it is an in-place patch (CountOffset). A locate passes a proxy whose count lies wholly before the
// child it wants by arithmetic (Skip) and reads only the record that
// holds the child. Decode cannot check a count, which describes another
// record; the tree manager checks a count against its target when it
// enters the target, and its invariant check checks all of them.
//
// The rule for the fused mark: a facade (non-scaffolding) aggregate whose
// only child is one facade #text string literal — <LINE>words</LINE>,
// nearly half the nodes of a document — is written as one embedded node:
// the element's header with the mark set, then the text's bytes as its
// content. The text has no header and cites no type, so a record whose
// texts are all fused has no #text entry in its type table. Decode
// expands the pair into the same two Nodes, so nothing above the image
// can tell; FusedText is the one predicate the encoder, the sizes and
// the splice share. The standalone root has no type byte to carry the
// mark and uses the record header's rootFused flag instead.
//
// The form is canonical: the encoder sets the wide flag only when the
// table needs it, takes the short size form whenever it fits and always
// fuses, and Decode rejects an image that does otherwise, holds an
// unfused text-only element, puts the mark on anything but a facade
// aggregate, holds a proxy entry in its table, or sets an unknown flag. A
// stored image is therefore exactly as long as its tree encodes to.
//
// Format 5 is the only format the runtime reads. Images of the older
// versions are read only by Upgrade, whose trees the tree manager
// re-encodes in format 5, counts filled in, when a store written before
// it is opened (see package segment's format version):
//
//   - 4: no counts — a proxy is its type and the RID, and cites a table
//     entry of its own; 4-byte table entries, the literal type a byte of
//     its own; a 2-byte standalone type index;
//   - 3: format 4 with fixed 4-byte embedded headers, the fused mark in
//     the top bit of the 2-byte size;
//   - 2: no fused mark;
//   - 1: an extra parent offset per embedded header.
//
// The node type table lives in the record rather than on the page (a
// deviation of its own; all three are recorded in DESIGN.md, "Native
// storage in one paragraph") so records stay self-contained when the
// record manager moves them.
package noderep

import (
	"encoding/binary"
	"errors"
	"fmt"

	"natix/internal/dict"
	"natix/internal/records"
)

// Kind is the content classification of a physical node (§2.3.1).
type Kind uint8

// Node kinds.
const (
	KindInvalid   Kind = 0
	KindAggregate Kind = 1 // inner node containing its children
	KindLiteral   Kind = 2 // leaf node with an uninterpreted byte payload
	KindProxy     Kind = 3 // reference to the record holding a subtree
)

// String returns the paper's name for the kind.
func (k Kind) String() string {
	switch k {
	case KindAggregate:
		return "aggregate"
	case KindLiteral:
		return "literal"
	case KindProxy:
		return "proxy"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// LitType is the interpretation of a literal payload. "Literals are
// typed, currently either string literals, 8/16/32/64-bit integer
// literals, float, or URI literals" (App. A).
type LitType uint8

// Literal types.
const (
	LitString LitType = iota
	LitInt8
	LitInt16
	LitInt32
	LitInt64
	LitFloat64
	LitURI
	// LitLongString marks an overflow literal whose payload is the 8-byte
	// id of a blobstore chain. Literals larger than a page cannot live
	// inside a record; this is the repository's long-field escape hatch.
	LitLongString
)

const (
	// StandaloneHeaderSize is typeIdx(1) + parentRID(8).
	StandaloneHeaderSize = 9

	// FormatVersion is the version every image is written and read in.
	// Images of the older versions are only read by Upgrade.
	FormatVersion = 5

	// CountSize is the width of a proxy's count, ProxyContentSize a
	// proxy's content — the target's RID and the count — and ProxySize
	// what an embedded proxy takes: its type byte and its content, the
	// size being implied.
	CountSize        = 4
	ProxyContentSize = records.RIDSize + CountSize
	ProxySize        = 1 + ProxyContentSize

	recHeaderSize = 4 // version(1) + flags(1) + ttCount(2)
	ttEntrySize   = 3 // litType(5 bits) kindFlags(3 bits) + label(2)

	// narrowTypes is the largest type table whose indexes fit the 7 bits a
	// one-byte type leaves beside the fused mark, the all-ones index
	// proxyNarrow being the proxies'; a larger table sets wideFlag and
	// cites its entries in 15 bits of two bytes, up to maxTypes, proxyWide
	// being the proxies'.
	narrowTypes = 1<<7 - 1
	maxTypes    = 1<<15 - 1
	proxyNarrow = narrowTypes
	proxyWide   = maxTypes

	// typeWords is the size of a bit set over a narrow table's entries.
	typeWords = (narrowTypes + 63) / 64

	// litShift places a literal's type in the top five bits of its table
	// entry's kind flags, up to maxLitType.
	litShift   = 3
	maxLitType = 1<<5 - 1

	// fusedMark is the top bit of an embedded node's type, narrowFused in
	// its one byte and wideFused in its two, and rootFusedFlag its
	// stand-in for the standalone root, in the record header's flags byte:
	// the node is a text-only element and its content the text's payload
	// (see the package comment).
	narrowFused   = 0x80
	wideFused     = 0x8000
	rootFusedFlag = 0x01
	wideFlag      = 0x02

	// longSize is the top bit of the first byte of a literal's or fused
	// element's size: the size takes a second byte.
	longSize = 0x80

	// maxContentSize bounds a node's content: a record is at most a page
	// and pagedev.MaxPageSize is 32 KB, which the long size form's 15 bits
	// cover.
	maxContentSize = 1<<15 - 1

	kindMask     = 0x03
	scaffoldFlag = 0x04
	proxyFlags   = byte(KindProxy) | scaffoldFlag

	// idxFused marks a fused element in a Layout's per-node type indexes,
	// which Emit holds to 15 bits.
	idxFused = 0x8000
)

// Errors.
var (
	ErrCorruptRecord = errors.New("noderep: corrupt record")
	ErrTooLarge      = errors.New("noderep: node content exceeds its 15-bit size")
	ErrBadNode       = errors.New("noderep: malformed node")
)

// Node is an in-memory physical node. The zero value is not valid; use
// the constructors.
type Node struct {
	Kind     Kind
	Label    dict.LabelID
	Scaffold bool        // scaffolding object (vs. facade), §2.3.3
	LitType  LitType     // literals only
	Payload  []byte      // literals only
	Target   records.RID // proxies only
	Count    uint32      // proxies only: the logical children the target contributes
	Children []*Node     // aggregates only
	Parent   *Node       // in-memory backlink; nil for the record root

	// Cookie is scratch for whoever built the node: never encoded, never
	// decoded, not copied by Clone. The bulk load's path-index builder
	// keeps each element's table slot here (0 = none), which is what lets
	// it find an element's posting from a record's node without a map.
	Cookie uint32
}

// NewAggregate builds a facade aggregate node for a logical element.
func NewAggregate(label dict.LabelID) *Node {
	return &Node{Kind: KindAggregate, Label: label}
}

// NewScaffoldAggregate builds a helper aggregate used to group the
// children of a partition record (the h1/h2 nodes of paper figure 3).
func NewScaffoldAggregate() *Node {
	return &Node{Kind: KindAggregate, Label: dict.Scaffold, Scaffold: true}
}

// NewTextLiteral builds a facade literal holding character data.
func NewTextLiteral(text string) *Node {
	return &Node{Kind: KindLiteral, Label: dict.Text, LitType: LitString, Payload: []byte(text)}
}

// NewLiteral builds a typed facade literal with the given label.
func NewLiteral(label dict.LabelID, t LitType, payload []byte) *Node {
	return &Node{Kind: KindLiteral, Label: label, LitType: t, Payload: payload}
}

// NewProxy builds a scaffolding proxy pointing at target, a record rooted
// in a facade node: it counts one logical child. A proxy to a scaffolding
// record counts its root's (LogicalCount).
func NewProxy(target records.RID) *Node {
	return &Node{Kind: KindProxy, Label: dict.Scaffold, Scaffold: true, Target: target, Count: 1}
}

// LogicalCount returns the number of logical children n contributes to
// the aggregate it stands in: a proxy its count, a scaffolding aggregate
// (a partition record's root) the sum over its children, anything else
// one.
func LogicalCount(n *Node) uint32 {
	switch {
	case n.Kind == KindProxy:
		return n.Count
	case n.Kind == KindAggregate && n.Scaffold:
		var c uint32
		for _, k := range n.Children {
			c += LogicalCount(k)
		}
		return c
	}
	return 1
}

// AppendChild adds c as the last child of n and sets its parent link.
func (n *Node) AppendChild(c *Node) *Node {
	c.Parent = n
	n.Children = append(n.Children, c)
	return n
}

// InsertChild inserts c at index i among n's children.
func (n *Node) InsertChild(i int, c *Node) {
	if i < 0 || i > len(n.Children) {
		panic(fmt.Sprintf("noderep: InsertChild index %d of %d", i, len(n.Children)))
	}
	c.Parent = n
	n.Children = append(n.Children, nil)
	copy(n.Children[i+1:], n.Children[i:])
	n.Children[i] = c
}

// RemoveChild removes and returns the child at index i.
func (n *Node) RemoveChild(i int) *Node {
	c := n.Children[i]
	copy(n.Children[i:], n.Children[i+1:])
	n.Children = n.Children[:len(n.Children)-1]
	c.Parent = nil
	return c
}

// ChildIndex returns the position of c among n's children, or -1.
func (n *Node) ChildIndex(c *Node) int {
	for i, x := range n.Children {
		if x == c {
			return i
		}
	}
	return -1
}

// ContentSize returns the serialized size of the node's content,
// excluding its own header, in a record with one-byte type indexes. A
// text-only element's content is its text's payload (FusedText).
func (n *Node) ContentSize() int {
	switch n.Kind {
	case KindLiteral:
		return len(n.Payload)
	case KindProxy:
		return ProxyContentSize
	case KindAggregate:
		if t := n.FusedText(); t != nil {
			return len(t.Payload)
		}
		total := 0
		for _, c := range n.Children {
			total += c.TotalSize()
		}
		return total
	default:
		return 0
	}
}

// HeaderSize returns the size of n's embedded header, in a record with
// one-byte type indexes, when n's content is cs bytes: the type byte and
// the size field n's kind calls for (see the package comment).
func HeaderSize(n *Node, cs int) int {
	return 1 + sizeLen(n.Kind, n.FusedText() != nil, cs)
}

// sizeLen returns the width of the size field of an embedded node of the
// given kind, fused or not, with cs bytes of content.
func sizeLen(kind Kind, fused bool, cs int) int {
	switch {
	case kind == KindProxy:
		return 0
	case kind == KindAggregate && !fused, cs >= longSize:
		return 2
	default:
		return 1
	}
}

// FusedText returns the text of a text-only element — a facade aggregate
// whose only child is one facade #text string literal — or nil for any
// other node. Such a pair is stored under the element's header alone (see
// the package comment): the text costs its payload and nothing else.
func (n *Node) FusedText() *Node {
	if n.Kind != KindAggregate || n.Scaffold || len(n.Children) != 1 {
		return nil
	}
	if c := n.Children[0]; nodeTypeKey(c) == textKey {
		return c
	}
	return nil
}

// TotalSize returns the serialized size of the node as an embedded
// object, header plus content, in a record with one-byte type indexes.
// (The text of a text-only element is not one; its TotalSize is what it
// would take beside a sibling.)
func (n *Node) TotalSize() int {
	cs := n.ContentSize()
	return HeaderSize(n, cs) + cs
}

// CountNodes returns the number of physical nodes in the subtree.
func (n *Node) CountNodes() int {
	total := 1
	for _, c := range n.Children {
		total += c.CountNodes()
	}
	return total
}

// Walk visits the subtree in pre-order, stopping if fn returns false.
func (n *Node) Walk(fn func(*Node) bool) bool {
	if !fn(n) {
		return false
	}
	for _, c := range n.Children {
		if !c.Walk(fn) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the subtree (parent links rebuilt).
func (n *Node) Clone() *Node {
	c := &Node{
		Kind: n.Kind, Label: n.Label, Scaffold: n.Scaffold,
		LitType: n.LitType, Target: n.Target, Count: n.Count,
	}
	if n.Payload != nil {
		c.Payload = append([]byte(nil), n.Payload...)
	}
	for _, ch := range n.Children {
		c.AppendChild(ch.Clone())
	}
	return c
}

// Equal reports deep equality of two subtrees (ignoring parent links).
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || a.Label != b.Label || a.Scaffold != b.Scaffold {
		return false
	}
	switch a.Kind {
	case KindLiteral:
		if a.LitType != b.LitType || string(a.Payload) != string(b.Payload) {
			return false
		}
	case KindProxy:
		if a.Target != b.Target || a.Count != b.Count {
			return false
		}
	}
	if len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// Validate checks structural well-formedness of a subtree.
func (n *Node) Validate() error {
	var l Layout
	return l.measure(n)
}

// Record is the in-memory form of one physical record: a subtree plus the
// RID of the record containing its proxy (nil for the tree's root record).
type Record struct {
	ParentRID records.RID
	Root      *Node
}

// ParentRIDOffset is the byte offset of the standalone parent RID within
// an encoded record, given its type-table entry count. Exposed so the
// tree manager can patch parent pointers in place without re-encoding.
func ParentRIDOffset(ttCount int) int {
	return recHeaderSize + ttEntrySize*ttCount + 1
}

// typeKey identifies one node type table entry.
type typeKey struct {
	kindFlags byte
	label     dict.LabelID
	litType   LitType
}

func nodeTypeKey(n *Node) typeKey {
	kf := byte(n.Kind) & kindMask
	if n.Scaffold {
		kf |= scaffoldFlag
	}
	lt := LitType(0)
	if n.Kind == KindLiteral {
		lt = n.LitType
	}
	return typeKey{kindFlags: kf, label: n.Label, litType: lt}
}

// textKey is the type of a facade #text string literal, the one literal
// an element can be fused with; proxyKey every proxy's, which no table
// holds.
var (
	textKey  = typeKey{kindFlags: byte(KindLiteral), label: dict.Text, litType: LitString}
	proxyKey = typeKey{kindFlags: proxyFlags, label: dict.Scaffold}
)

// entryByte is the first byte of k's table entry: its kind flags and, for
// a literal, its literal type.
func (k typeKey) entryByte() byte { return k.kindFlags | byte(k.litType)<<litShift }

// entryKey reads the type-table entry that starts at e[0].
func entryKey[B ~[]byte | ~string](e B) typeKey {
	return typeKey{kindFlags: e[0] & (kindMask | scaffoldFlag), label: dict.LabelID(u16(e[1:])), litType: LitType(e[0] >> litShift)}
}

// typeIndex returns the position of k in order, or -1. Type tables are
// small (a handful of distinct types per record), so a linear scan over
// the 4-byte keys beats hashing — the encoder and the bulk builder's
// TypeSet both sit on import's hottest path.
func typeIndex(order []typeKey, k typeKey) int {
	for i, t := range order {
		if t == k {
			return i
		}
	}
	return -1
}

// RecordOverhead returns the fixed cost of a record with ttCount node
// type table entries: record header, type table and standalone header.
// The bulk builder uses it, through RecordSize, to account record sizes
// incrementally instead of re-walking subtrees.
func RecordOverhead(ttCount int) int {
	return recHeaderSize + ttEntrySize*ttCount + StandaloneHeaderSize
}

// RecordSize returns the size of a record with ttCount type-table entries
// whose root's content, accounted with one-byte type indexes
// (ContentSize), is content bytes: exact while the table is narrow, and
// an upper bound past that, where every embedded header takes one more
// byte — no more than content/2 of them, every embedded node taking at
// least two.
func RecordSize(ttCount, content int) int {
	size := RecordOverhead(ttCount) + content
	if ttCount > narrowTypes {
		size += content / 2
	}
	return size
}

// TypeSet incrementally tracks the distinct node types of a prospective
// record, so its type-table size is known without re-walking already
// accounted subtrees. Types keep the index they were assigned on first
// insertion, so a set accumulated during a bulk build doubles as the
// record's type table at encode time (EncodeWith).
type TypeSet struct {
	order []typeKey
}

// NewTypeSet returns an empty type set.
func NewTypeSet() *TypeSet {
	return &TypeSet{order: make([]typeKey, 0, 8)}
}

func (ts *TypeSet) add(k typeKey) {
	if typeIndex(ts.order, k) < 0 {
		ts.order = append(ts.order, k)
	}
}

// AddNode records the type of n alone; a proxy has none.
func (ts *TypeSet) AddNode(n *Node) {
	if n.Kind != KindProxy {
		ts.add(nodeTypeKey(n))
	}
}

// Merge adds every type of other.
func (ts *TypeSet) Merge(other *TypeSet) {
	for _, k := range other.order {
		ts.add(k)
	}
}

// Len returns the number of distinct types.
func (ts *TypeSet) Len() int { return len(ts.order) }

// TruncateTo rolls the set back to its first n types, undoing every
// addition made after Len() was n. The bulk builder uses it to un-merge
// a child that turned out not to fit the record being sized.
func (ts *TypeSet) TruncateTo(n int) {
	ts.order = ts.order[:n]
}

// Reset empties the set for reuse.
func (ts *TypeSet) Reset() {
	ts.order = ts.order[:0]
}

// Layout is what one measure pass learns about a record: its type table,
// the table index of every node in pre-order, and the root's content
// size — everything Emit needs to write the image in one further pass.
// A Layout is reusable; the zero value is ready.
type Layout struct {
	types   []typeKey
	idx     []uint16 // type-table index per node with a header, pre-order; idxFused marks a fused element
	content int      // with one-byte type indexes
	nodes   int      // nodes of the tree
	fused   int      // of them, texts stored under their element's header
}

// Size returns the exact on-disk size of the measured record.
func (l *Layout) Size() int {
	size := RecordOverhead(len(l.types)) + l.content
	if len(l.types) > narrowTypes {
		size += l.nodes - 1 - l.fused // a second type byte per embedded header
	}
	return size
}

// Measure validates rec (Validate's conditions) and computes its layout
// in one descent. It only reads rec, so it is safe under a read lock.
func Measure(rec *Record, l *Layout) error {
	if rec.Root == nil {
		return fmt.Errorf("%w: nil root", ErrBadNode)
	}
	return l.measure(rec.Root)
}

func (l *Layout) measure(root *Node) error {
	l.types = l.types[:0]
	l.idx = l.idx[:0]
	l.nodes, l.fused = 0, 0
	var err error
	l.content, _, err = l.measureNode(root, true)
	return err
}

// measureNode assigns n its type-table index, checks its well-formedness
// and returns its content size and the size of its header as an
// embedded node (HeaderSize).
func (l *Layout) measureNode(n *Node, isRoot bool) (cs, hdr int, err error) {
	if n.Kind == KindProxy {
		// The reserved type: no table entry, no index.
		if len(n.Children) != 0 || len(n.Payload) != 0 {
			return 0, 0, fmt.Errorf("%w: proxy with children or payload", ErrBadNode)
		}
		if n.Target.IsNil() {
			return 0, 0, fmt.Errorf("%w: proxy with nil target", ErrBadNode)
		}
		if isRoot {
			return 0, 0, fmt.Errorf("%w: proxy as a record's root", ErrBadNode)
		}
		if nodeTypeKey(n) != proxyKey {
			return 0, 0, fmt.Errorf("%w: proxy with a label or flags of its own", ErrBadNode)
		}
		l.nodes++
		return ProxyContentSize, 1, nil
	}
	k := nodeTypeKey(n)
	ti := typeIndex(l.types, k)
	if ti < 0 {
		ti = len(l.types)
		l.types = append(l.types, k)
	}
	l.idx = append(l.idx, uint16(ti)) // Emit rejects tables past 15 bits
	l.nodes++
	switch n.Kind {
	case KindAggregate:
		if len(n.Payload) != 0 {
			return 0, 0, fmt.Errorf("%w: aggregate with payload", ErrBadNode)
		}
		if t := n.FusedText(); t != nil {
			// The text has no header of its own: no type, no index.
			if t.Parent != n {
				return 0, 0, fmt.Errorf("%w: child with stale parent link", ErrBadNode)
			}
			if len(t.Children) != 0 {
				return 0, 0, fmt.Errorf("%w: literal with children", ErrBadNode)
			}
			l.nodes++
			l.fused++
			l.idx[len(l.idx)-1] |= idxFused
			return len(t.Payload), 1 + sizeLen(KindLiteral, true, len(t.Payload)), nil
		}
		for _, c := range n.Children {
			if c.Parent != n {
				return 0, 0, fmt.Errorf("%w: child with stale parent link", ErrBadNode)
			}
			ccs, chdr, err := l.measureNode(c, false)
			if err != nil {
				return 0, 0, err
			}
			cs += chdr + ccs
		}
		// Scaffolding aggregates only ever stand alone as record roots; the
		// split algorithm's special cases guarantee it (§3.2.2).
		if n.Scaffold && !isRoot {
			return 0, 0, fmt.Errorf("%w: embedded scaffolding aggregate", ErrBadNode)
		}
		return cs, 3, nil
	case KindLiteral:
		if len(n.Children) != 0 {
			return 0, 0, fmt.Errorf("%w: literal with children", ErrBadNode)
		}
		if n.LitType > maxLitType {
			return 0, 0, fmt.Errorf("%w: literal type %d", ErrBadNode, n.LitType)
		}
		return len(n.Payload), 1 + sizeLen(KindLiteral, false, len(n.Payload)), nil
	default:
		return 0, 0, fmt.Errorf("%w: kind %d", ErrBadNode, n.Kind)
	}
}

// EncodedSize returns the exact on-disk size of a well-formed record.
// The tree manager compares it against the net page capacity to decide
// splits. It only reads rec.
func EncodedSize(rec *Record) int {
	var l Layout
	_ = l.measure(rec.Root) // callers that care about the error call Measure
	return l.Size()
}

// Emit writes the image of the record l was measured from into dst
// (reused when large enough). rec must not have changed since Measure.
func (l *Layout) Emit(dst []byte, rec *Record) ([]byte, error) {
	e := emitter{order: l.types, idx: l.idx}
	buf, err := e.emit(dst, rec, l.Size())
	if err != nil {
		return nil, err
	}
	if e.next != len(l.idx) {
		return nil, fmt.Errorf("noderep: encode node count mismatch: wrote %d of %d", e.next, len(l.idx))
	}
	return buf, nil
}

// Encode serializes the record.
func Encode(rec *Record) ([]byte, error) {
	var l Layout
	if err := Measure(rec, &l); err != nil {
		return nil, err
	}
	return l.Emit(nil, rec)
}

// EncodeWith serializes the record into dst (grown when too small) using
// a precomputed type set and content size in place of a measure pass. It
// is the bulk loader's fast path: the builder accounts both
// incrementally, and its trees are well-formed by construction. ts must
// cover exactly the types of the nodes that are written with a header —
// a fused text (FusedText) is not — and content must equal
// rec.Root.ContentSize(); a mismatch either way is reported as an encode
// error, not silently miswritten. Nodes find their type index by key: the
// builder merges type sets bottom-up, so no per-node index survives to
// here. A set too large for one-byte type indexes takes the measured path,
// whose table must then have as many entries as ts.
func EncodeWith(dst []byte, rec *Record, ts *TypeSet, content int) ([]byte, error) {
	if rec.Root == nil {
		return nil, fmt.Errorf("%w: nil root", ErrBadNode)
	}
	if ts.Len() > narrowTypes {
		var l Layout
		if err := Measure(rec, &l); err != nil {
			return nil, err
		}
		if len(l.types) != ts.Len() {
			return nil, fmt.Errorf("%w: type set of %d types for a tree of %d", ErrBadNode, ts.Len(), len(l.types))
		}
		return l.Emit(dst, rec)
	}
	e := emitter{order: ts.order}
	buf, err := e.emit(dst, rec, RecordOverhead(ts.Len())+content)
	if err != nil {
		return nil, err
	}
	for i := range ts.Len() {
		if e.cited[i/64]&(1<<(i%64)) == 0 {
			return nil, fmt.Errorf("%w: type set holds a type no node has", ErrBadNode)
		}
	}
	return buf, nil
}

// emitter is the state of one emit pass.
type emitter struct {
	buf   []byte
	order []typeKey
	idx   []uint16          // measured per-node type indexes; nil resolves by key
	next  int               // nodes written so far
	wide  bool              // two-byte type indexes
	cited [typeWords]uint64 // table entries resolved by key, one bit each
}

// typeOf returns n's type-table index and whether n is a text-only
// element stored fused (FusedText), n being the next node in pre-order.
func (e *emitter) typeOf(n *Node) (int, bool, error) {
	if e.idx == nil {
		ti := typeIndex(e.order, nodeTypeKey(n))
		if ti < 0 {
			return 0, false, fmt.Errorf("%w: node type missing from type set", ErrBadNode)
		}
		e.cited[ti/64] |= 1 << (ti % 64) // resolved by key only below narrowTypes
		return ti, n.FusedText() != nil, nil
	}
	if e.next >= len(e.idx) {
		return 0, false, fmt.Errorf("noderep: encode node count mismatch: more than %d nodes", len(e.idx))
	}
	v := e.idx[e.next]
	e.next++
	return int(v &^ idxFused), v&idxFused != 0, nil
}

// emit writes the record image of the given total size into dst (reused
// when large enough).
func (e *emitter) emit(dst []byte, rec *Record, size int) ([]byte, error) {
	if len(e.order) > maxTypes {
		return nil, fmt.Errorf("%w: %d node types", ErrTooLarge, len(e.order))
	}
	e.wide = len(e.order) > narrowTypes
	if cap(dst) >= size {
		e.buf = dst[:size]
	} else {
		e.buf = make([]byte, size)
	}
	buf := e.buf
	buf[0] = FormatVersion
	buf[1] = 0
	if e.wide {
		buf[1] = wideFlag
	}
	putU16(buf[2:], len(e.order))
	pos := recHeaderSize
	for _, k := range e.order {
		if k.litType > maxLitType {
			return nil, fmt.Errorf("%w: literal type %d", ErrBadNode, k.litType)
		}
		buf[pos] = k.entryByte()
		putU16(buf[pos+1:], int(k.label))
		pos += ttEntrySize
	}
	// Standalone header.
	if rec.Root.Kind == KindProxy {
		return nil, fmt.Errorf("%w: proxy as a record's root", ErrBadNode)
	}
	ti, fused, err := e.typeOf(rec.Root)
	if err != nil {
		return nil, err
	}
	if ti > 0xFF {
		// Never: the measured path puts the root's type first, and a
		// narrow table has no index past a byte.
		return nil, fmt.Errorf("noderep: root type index %d past the standalone header's byte", ti)
	}
	buf[pos] = byte(ti)
	rec.ParentRID.Put(buf[pos+1:])
	pos += StandaloneHeaderSize
	// Root content.
	n := rec.Root
	if fused {
		n = n.Children[0]
		buf[1] |= rootFusedFlag
	}
	end, err := e.content(pos, n)
	if err != nil {
		return nil, err
	}
	if end != size {
		return nil, fmt.Errorf("noderep: encode size mismatch: wrote %d of %d", end, size)
	}
	return buf, nil
}

// content writes the content of n starting at pos. An aggregate's size
// fields are backpatched after each child is written, so encoding never
// re-walks subtrees to size them; a literal's and a fused element's,
// whose width follows from the size, are known before.
func (e *emitter) content(pos int, n *Node) (int, error) {
	buf := e.buf
	switch n.Kind {
	case KindLiteral:
		if pos+len(n.Payload) > len(buf) {
			return 0, fmt.Errorf("%w: literal overruns record", ErrTooLarge)
		}
		return pos + copy(buf[pos:], n.Payload), nil
	case KindAggregate:
		for _, c := range n.Children {
			if c.Kind == KindProxy {
				typ, hdr := proxyNarrow, 1
				if e.wide {
					typ, hdr = proxyWide, 2
				}
				if pos+hdr+ProxyContentSize > len(buf) {
					return 0, fmt.Errorf("%w: proxy overruns record", ErrTooLarge)
				}
				pos = putProxy(buf, putType(buf, pos, typ, false, e.wide), c)
				continue
			}
			ti, fused, err := e.typeOf(c)
			if err != nil {
				return 0, err
			}
			body := c
			if fused {
				body = c.Children[0]
			}
			hdr := 1 + sizeLen(c.Kind, fused, len(body.Payload))
			if e.wide {
				hdr++
			}
			if pos+hdr > len(buf) {
				return 0, fmt.Errorf("%w: embedded header overruns record", ErrTooLarge)
			}
			pos = putType(buf, pos, ti, fused, e.wide)
			if c.Kind == KindAggregate && !fused {
				sz := pos
				if pos, err = e.content(pos+2, c); err != nil {
					return 0, err
				}
				cs := pos - sz - 2
				if cs > maxContentSize {
					return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, cs)
				}
				putU16(buf[sz:], cs)
				continue
			}
			if c.Kind != KindProxy {
				if len(body.Payload) > maxContentSize {
					return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(body.Payload))
				}
				pos = putSize(buf, pos, len(body.Payload))
			}
			if pos, err = e.content(pos, body); err != nil {
				return 0, err
			}
		}
		return pos, nil
	default:
		return 0, fmt.Errorf("%w: kind %d", ErrBadNode, n.Kind)
	}
}

// putProxy writes the content of the proxy n — its target and count — at
// pos of buf and returns the offset behind it.
func putProxy(buf []byte, pos int, n *Node) int {
	n.Target.Put(buf[pos:])
	binary.LittleEndian.PutUint32(buf[pos+records.RIDSize:], n.Count)
	return pos + ProxyContentSize
}

// putType writes an embedded type — table index ti, fused or not — at
// pos of buf, in two bytes when wide, and returns the offset behind it.
func putType(buf []byte, pos, ti int, fused, wide bool) int {
	if wide {
		if fused {
			ti |= wideFused
		}
		putU16(buf[pos:], ti)
		return pos + 2
	}
	if fused {
		ti |= narrowFused
	}
	buf[pos] = byte(ti)
	return pos + 1
}

// putSize writes a literal's or fused element's content size cs at pos
// of buf, in its shortest form, and returns the offset behind it.
func putSize(buf []byte, pos, cs int) int {
	if cs < longSize {
		buf[pos] = byte(cs)
		return pos + 1
	}
	buf[pos] = byte(cs) | longSize
	buf[pos+1] = byte(cs >> 7)
	return pos + 2
}

// header is one embedded header read out of an image.
type header struct {
	ti    int  // type-table index; -1 for a proxy
	kf    byte // the entry's kind flags
	fused bool
	start int // offset of the content
	cs    int // content size
}

// end returns the offset behind h's content.
func (h *header) end() int { return h.start + h.cs }

// aggregate reports whether h's content is children's headers: an
// aggregate that is not fused.
func (h *header) aggregate() bool { return Kind(h.kf&kindMask) == KindAggregate && !h.fused }

// readHeader reads the embedded header at p of img, a format 5 image
// with types type-table entries and, when wide, two-byte type indexes,
// inside content that ends at end, into h. It reports false for a header
// or content that crosses end, a type not in the table (a proxy's
// reserved type aside), a table entry of kind proxy, a mark on anything
// but a facade aggregate, an embedded scaffolding aggregate (they only
// ever stand alone, §3.2.2) or a size not in its shortest form. The table
// must lie inside img.
//
//natix:noalloc
func readHeader[B ~[]byte | ~string](img B, wide bool, types, p, end int, h *header) bool {
	var ti int
	if !wide {
		if p >= end {
			return false
		}
		ti, p = int(img[p]), p+1
		if ti == proxyNarrow {
			return proxyHeader(p, end, h)
		}
		h.fused, ti = ti&narrowFused != 0, ti&^narrowFused
	} else {
		if p+2 > end {
			return false
		}
		ti, p = u16(img[p:]), p+2
		if ti == proxyWide {
			return proxyHeader(p, end, h)
		}
		h.fused, ti = ti&wideFused != 0, ti&^wideFused
	}
	if ti >= types {
		return false
	}
	kf := img[recHeaderSize+ttEntrySize*ti] & (kindMask | scaffoldFlag)
	h.ti, h.kf = ti, kf
	var cs int
	switch kind := Kind(kf & kindMask); {
	case kind == KindAggregate && !h.fused:
		if p+2 > end || kf&scaffoldFlag != 0 {
			return false
		}
		cs, p = u16(img[p:]), p+2
	case kind == KindLiteral && !h.fused, kind == KindAggregate && kf&scaffoldFlag == 0:
		if p >= end {
			return false
		}
		cs, p = int(img[p]), p+1
		if cs&longSize != 0 {
			if p >= end {
				return false
			}
			cs, p = cs&^longSize|int(img[p])<<7, p+1
			if cs < longSize {
				return false
			}
		}
	default:
		return false
	}
	h.start, h.cs = p, cs
	return p+cs <= end
}

// proxyHeader fills h for a proxy whose content starts at p, inside
// content that ends at end.
func proxyHeader(p, end int, h *header) bool {
	h.ti, h.kf, h.fused, h.start, h.cs = -1, proxyFlags, false, p, ProxyContentSize
	return p+ProxyContentSize <= end
}

// proxyCount reads the count of the proxy whose content ends at end.
func proxyCount[B ~[]byte | ~string](img B, end int) int {
	b := img[end-CountSize : end]
	return int(b[0]) | int(b[1])<<8 | int(b[2])<<16 | int(b[3])<<24
}

// hop returns the offset behind the n embedded nodes whose first header
// is at p of img — a narrow image with tt type-table entries — inside
// content that ends at end, or -1 when a header or its content crosses
// end or cites a type not in the table: the step from a node to the
// sibling n on, without readHeader's checks of what the nodes hold.
func hop(img []byte, tt, p, end, n int) int {
	p, _, _, _ = skip(img, tt, p, end, n, false)
	return p
}

// skip is hop that, when counted is set, passes logical children instead
// of nodes — a proxy counting as many as its count — n of them, and stops
// in front of the node holding the next one, or at end: it returns where
// it stopped, how many logical children and how many nodes it passed
// and, when it stopped at a proxy, the offset behind it (0 otherwise).
func skip(img []byte, tt, p, end, n int, counted bool) (at, passed, nodes, proxyEnd int) {
	m := 0
	for ; m < n || counted; nodes++ {
		if p+2 > end {
			if p == end && counted {
				return p, m, nodes, 0 // the content's end
			}
			return -1, m, nodes, 0 // every embedded node takes two bytes or more
		}
		b := int(img[p])
		if b&narrowFused == 0 {
			// Not a fused element: the type says how the size is stored.
			if b == proxyNarrow {
				q := p + ProxySize
				if q > end {
					return -1, m, nodes, 0
				}
				c := 1
				if counted {
					if c = proxyCount(img, q); c > n-m {
						return p, m, nodes, q
					}
				}
				p, m = q, m+c
				continue
			}
			if counted && m == n {
				return p, m, nodes, 0
			}
			if b >= tt {
				return -1, m, nodes, 0
			}
			switch Kind(img[recHeaderSize+ttEntrySize*b] & kindMask) {
			case KindProxy:
				return -1, m, nodes, 0 // no table entry is a proxy
			case KindAggregate:
				if p+3 > end {
					return -1, m, nodes, 0
				}
				p += 3 + u16(img[p+1:])
				m++
				continue
			}
		} else if counted && m == n {
			return p, m, nodes, 0
		}
		cs := int(img[p+1])
		if p += 2; cs&longSize != 0 {
			if p >= end {
				return -1, m, nodes, 0
			}
			cs = cs&^longSize | int(img[p])<<7
			p++
		}
		p += cs
		m++
	}
	if p > end {
		return -1, m, nodes, 0
	}
	return p, m, nodes, 0
}

// Decode parses a format 5 record image back into a node tree, validating
// sizes, type indexes and the canonical form (see the package comment).
// A fused element is expanded into its two nodes.
//
// The returned tree is arena-backed: a structural pre-pass sizes three
// shared allocations (the Node array, the child-pointer backing and the
// literal payload bytes) and every node is carved out of them, so a
// record decodes in a handful of allocations instead of several per
// node. Child slices and payloads are capacity-clamped to their carved
// region, so post-decode mutation (AppendChild, payload growth) causes a
// plain reallocation rather than clobbering a sibling's backing.
//
//natix:noalloc
func Decode(buf []byte) (*Record, error) {
	if len(buf) < recHeaderSize+StandaloneHeaderSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrCorruptRecord, len(buf)) //natix:vet-ignore cold corrupt-input path
	}
	if buf[0] != FormatVersion {
		return nil, fmt.Errorf("%w: version %d", ErrCorruptRecord, buf[0]) //natix:vet-ignore cold corrupt-input path
	}
	ttCount := u16(buf[2:])
	if buf[1]&^(rootFusedFlag|wideFlag) != 0 || (buf[1]&wideFlag != 0) != (ttCount > narrowTypes) {
		return nil, fmt.Errorf("%w: flags %#x with %d types", ErrCorruptRecord, buf[1], ttCount) //natix:vet-ignore cold corrupt-input path
	}
	pos := recHeaderSize
	if pos+ttEntrySize*ttCount+StandaloneHeaderSize > len(buf) {
		return nil, fmt.Errorf("%w: truncated type table", ErrCorruptRecord) //natix:vet-ignore cold corrupt-input path
	}
	types := make([]tableEntry, ttCount) //natix:vet-ignore type table, part of the record's allocation budget
	for i := range types {
		types[i].typeKey = entryKey(buf[pos:])
		// What the encoder leaves zero is zero: two entries that differ
		// only there would be one entry on a re-encode. A proxy has no
		// entry.
		if k := types[i].typeKey; Kind(k.kindFlags&kindMask) == KindProxy || (Kind(k.kindFlags&kindMask) != KindLiteral && k.litType != 0) {
			return nil, fmt.Errorf("%w: type table entry %d is a proxy or has unknown bits set", ErrCorruptRecord, i) //natix:vet-ignore cold corrupt-input path
		}
		pos += ttEntrySize
	}
	a := decodeArena{buf: buf, types: types, wide: buf[1]&wideFlag != 0}
	rootIdx := int(buf[pos])
	if rootIdx >= ttCount {
		return nil, fmt.Errorf("%w: root type index %d of %d", ErrCorruptRecord, rootIdx, ttCount) //natix:vet-ignore cold corrupt-input path
	}
	parentRID := records.DecodeRID(buf[pos+1 : pos+StandaloneHeaderSize])
	pos += StandaloneHeaderSize
	types[rootIdx].used = true
	rootFused := buf[1]&rootFusedFlag != 0
	nNodes, nPayload, err := a.count(pos, len(buf), types[rootIdx].kindFlags, rootFused)
	if err != nil {
		return nil, err
	}
	if err := checkTableExact(types); err != nil {
		return nil, err
	}
	a.nodes = make([]Node, 0, nNodes+1)   //natix:vet-ignore arena backing, part of the record's allocation budget
	a.kids = make([]*Node, 0, nNodes)     //natix:vet-ignore arena backing, part of the record's allocation budget
	a.payload = make([]byte, 0, nPayload) //natix:vet-ignore arena backing, part of the record's allocation budget
	root, err := a.newNode(types[rootIdx].typeKey)
	if err != nil {
		return nil, err
	}
	if err := a.decodeContent(pos, len(buf), root, rootFused); err != nil {
		return nil, err
	}
	return &Record{ParentRID: parentRID, Root: root}, nil
}

// tableEntry is one type-table entry during Decode, marked once a node
// cites it.
type tableEntry struct {
	typeKey
	used bool
}

// checkTableExact holds the type table to what the encoder writes: every
// entry cited by some node and no entry twice. (A fused text has no
// header and cites nothing, so where every text is fused the #text entry
// is absent.) A stored image then has exactly the size a re-encode of
// its tree would have, which the splice path relies on — it grows
// records from their stored length and never re-measures the part it
// does not touch.
func checkTableExact(types []tableEntry) error {
	for i := range types {
		if !types[i].used {
			return fmt.Errorf("%w: type table entry %d unused", ErrCorruptRecord, i)
		}
		for j := range types[:i] {
			if types[j].typeKey == types[i].typeKey {
				return fmt.Errorf("%w: type table entries %d and %d equal", ErrCorruptRecord, j, i)
			}
		}
	}
	return nil
}

// decodeArena is the state of one Decode: the image, its type table and
// index width, and the record's shared allocations.
type decodeArena struct {
	buf   []byte
	types []tableEntry
	wide  bool

	nodes   []Node
	kids    []*Node
	payload []byte
}

// count is Decode's sizing pre-pass: it hops the embedded headers of the
// content buf[pos:end) of a node with kind flags kf — a fused element's
// content, when fused is set — counting descendant nodes (the text a
// fused element expands to included) and literal payload bytes (including
// a literal's own content) and marking the type-table entries they cite.
// Structural errors surface here, before any allocation.
func (a *decodeArena) count(pos, end int, kf byte, fused bool) (nodes, payload int, err error) {
	kind := Kind(kf & kindMask)
	if fused {
		if kind != KindAggregate || kf&scaffoldFlag != 0 {
			return 0, 0, fmt.Errorf("%w: fused mark on a node that cannot carry it", ErrCorruptRecord)
		}
		return 1, end - pos, nil
	}
	switch kind {
	case KindLiteral:
		return 0, end - pos, nil
	case KindProxy:
		return 0, 0, nil
	case KindAggregate:
		for pos < end {
			var h header
			if !readHeader(a.buf, a.wide, len(a.types), pos, end, &h) {
				return 0, 0, fmt.Errorf("%w: embedded header at %d", ErrCorruptRecord, pos)
			}
			if h.ti >= 0 {
				a.types[h.ti].used = true
			}
			cn, cp, err := a.count(h.start, h.end(), h.kf, h.fused)
			if err != nil {
				return 0, 0, err
			}
			nodes += 1 + cn
			payload += cp
			pos = h.end()
		}
		return nodes, payload, nil
	default:
		return 0, 0, fmt.Errorf("%w: node kind %d", ErrCorruptRecord, kind)
	}
}

// newNode carves one node out of the arena (falling back to a fresh
// allocation if the pre-pass undercounted, which only a logic bug could
// cause).
//
//natix:noalloc
func (a *decodeArena) newNode(t typeKey) (*Node, error) {
	k := Kind(t.kindFlags & kindMask)
	switch k {
	case KindAggregate, KindLiteral, KindProxy:
	default:
		return nil, fmt.Errorf("%w: node kind %d", ErrCorruptRecord, k) //natix:vet-ignore cold corrupt-input path
	}
	n := &Node{}
	if len(a.nodes) < cap(a.nodes) {
		a.nodes = a.nodes[:len(a.nodes)+1]
		n = &a.nodes[len(a.nodes)-1]
	}
	n.Kind = k
	n.Label = t.label
	n.Scaffold = t.kindFlags&scaffoldFlag != 0
	n.LitType = t.litType
	return n, nil
}

// takeKids carves an empty, capacity-clamped child slice for n children.
func (a *decodeArena) takeKids(n int) []*Node {
	base := len(a.kids)
	if base+n > cap(a.kids) {
		return make([]*Node, 0, n)
	}
	a.kids = a.kids[:base+n]
	return a.kids[base : base : base+n]
}

// takePayload copies b into the payload arena, capacity-clamped.
func (a *decodeArena) takePayload(b []byte) []byte {
	base := len(a.payload)
	if base+len(b) > cap(a.payload) {
		return append([]byte(nil), b...)
	}
	a.payload = a.payload[:base+len(b)]
	p := a.payload[base : base+len(b) : base+len(b)]
	copy(p, b)
	return p
}

// decodeContent fills n from buf[pos:end] — with the text that is all of
// a fused element's content, when fused is set. count has vetted the
// headers.
func (a *decodeArena) decodeContent(pos, end int, n *Node, fused bool) error {
	buf := a.buf
	if fused {
		t, err := a.newNode(textKey)
		if err != nil {
			return err
		}
		n.Children = a.takeKids(1)
		n.AppendChild(t)
		t.Payload = a.takePayload(buf[pos:end])
		return nil
	}
	switch n.Kind {
	case KindLiteral:
		n.Payload = a.takePayload(buf[pos:end])
		return nil
	case KindProxy:
		if end-pos != ProxyContentSize {
			return fmt.Errorf("%w: proxy content %d bytes", ErrCorruptRecord, end-pos)
		}
		n.Target = records.DecodeRID(buf[pos : pos+records.RIDSize])
		if n.Target.IsNil() {
			return fmt.Errorf("%w: proxy with nil target", ErrCorruptRecord)
		}
		n.Count = uint32(proxyCount(buf, end))
		return nil
	case KindAggregate:
		// First sweep: count this level's children by hopping the
		// embedded headers, so their pointer slice is carved contiguously
		// before the recursion below carves deeper levels.
		var h header
		count := 0
		for p := pos; p < end; count++ {
			if a.wide {
				readHeader(buf, a.wide, len(a.types), p, end, &h)
				p = h.end()
			} else {
				p = hop(buf, len(a.types), p, end, 1)
			}
		}
		n.Children = a.takeKids(count)
		for pos < end {
			readHeader(buf, a.wide, len(a.types), pos, end, &h)
			k := proxyKey
			if h.ti >= 0 {
				k = a.types[h.ti].typeKey
			}
			c, err := a.newNode(k)
			if err != nil {
				return err
			}
			n.AppendChild(c)
			if err := a.decodeContent(h.start, h.end(), c, h.fused); err != nil {
				return err
			}
			pos = h.end()
		}
		// The encoder always fuses: the pair written out in full is not an
		// image it produces.
		if n.FusedText() != nil {
			return fmt.Errorf("%w: unfused text-only element", ErrCorruptRecord)
		}
		return nil
	default:
		return fmt.Errorf("%w: kind %d", ErrCorruptRecord, n.Kind)
	}
}
