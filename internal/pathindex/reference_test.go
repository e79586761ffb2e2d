package pathindex

// Two implementations this package shipped and replaced, kept as the
// oracles their replacements are held to.
//
// The streaming builder before the element table: per-element state in
// a map keyed by node, postings appended in record-emission order
// (bottom-up) and sorted into document order at Finish. Unchanged but
// for its name; StreamBuilder's oracle (differential_test.go and
// stream_test.go) and the "old" side of BenchmarkStreamBuilder.
//
// The index builder before it read record images: one logical
// pre-order walk over the decoded records (core.NodeRef, Children), each
// node numbered by a count of its record's nodes the walk reached before
// it. Build's oracle (differential_test.go).
//
// The fixed-width postings encoder of index version 2, 22 bytes a
// posting. Its decoder is still in codec.go, for stores written before
// version 3; the encoder lives on here, as the other half of the codec
// differential (codec_test.go), as the way tests make such a store
// (StoreAsV2), and as the "old" side of BenchmarkPostingsCodec.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"

	"natix/internal/core"
	"natix/internal/dict"
	"natix/internal/noderep"
	"natix/internal/records"
)

// refEncodeV2 appends list's version 2 postings blob to out.
func refEncodeV2(out []byte, list []Posting) []byte {
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

// refBuild is Build over decoded records.
func refBuild(trees *core.Store, root records.RID) (*Index, error) {
	rootRef, err := trees.OpenTree(root).Root()
	if err != nil {
		return nil, err
	}
	if rootRef.IsLiteral() {
		return nil, fmt.Errorf("pathindex: root of %s is a literal", root)
	}
	b := &refBuilder{trees: trees, idx: NewIndex(), local: make(map[records.RID]int)}
	b.idx.root = rootRef.Label()
	if err := b.walk(rootRef, b.idx.InternPath(NilPath, rootRef.Label())); err != nil {
		return nil, err
	}
	b.idx.nodes = b.seq
	return b.idx, nil
}

type refBuilder struct {
	trees *core.Store
	idx   *Index
	local map[records.RID]int
	seq   uint32
}

func (b *refBuilder) walk(ref core.NodeRef, path PathID) error {
	seq := b.seq
	b.seq++
	local := b.local[ref.RID()]
	b.local[ref.RID()]++
	if local > math.MaxUint16 {
		return fmt.Errorf("pathindex: facade index %d exceeds uint16 in record %s", local, ref.RID())
	}
	label := ref.Label()
	b.idx.paths[path].Count++
	b.idx.postings[label] = append(b.idx.postings[label], Posting{
		Seq: seq, RID: ref.RID(), Local: uint16(local), Path: path,
	})
	slot := len(b.idx.postings[label]) - 1
	kids, err := b.trees.Children(ref)
	if err != nil {
		return err
	}
	for _, k := range kids {
		if k.IsLiteral() {
			b.local[k.RID()]++
			b.seq++
			continue
		}
		if err := b.walk(k, b.idx.InternPath(path, k.Label())); err != nil {
			return err
		}
	}
	b.idx.postings[label][slot].Size = b.seq - seq - 1
	return nil
}

// The codec, for the tests and benchmarks of package pathindex_test
// (which, unlike this package's own tests, can import the document
// store and so get at real lists).
var (
	EncodePostings = encodePostings
	RefEncodeV2    = refEncodeV2
	RefBuild       = refBuild
	DecodePostings = decodePostings
)

// The two postings layouts DecodePostings reads.
const (
	IndexVersion = indexVersion
	FixedVersion = fixedVersion
)

// StoreAsV2 rewrites name's stored index the way a store from before
// version 3 holds it: every list in the fixed-width layout, under a
// version 2 summary.
func StoreAsV2(s *Store, name string) error {
	s.InvalidateCache()
	h, err := s.Get(name)
	if err != nil {
		return err
	}
	sum := *h.sum
	sum.version = fixedVersion
	sum.dir = make(map[dict.LabelID]dirEntry, len(h.sum.dir))
	for label, e := range h.sum.dir {
		list, err := h.Postings(label)
		if err != nil {
			return err
		}
		if e.rid, err = s.blobs.Overwrite(e.rid, refEncodeV2(nil, list)); err != nil {
			return err
		}
		sum.dir[label] = e
	}
	id, err := s.blobs.Overwrite(s.view.Load().entries[name], encodeSummary(nil, &sum))
	if err != nil {
		return err
	}
	setEntry(s, name, id)
	s.InvalidateCache()
	return s.saveCatalog()
}

// refStreamMeta is the logical half of one element's posting.
type refStreamMeta struct {
	seq  uint32
	size uint32
	path PathID
}

// RefStreamBuilder is the reference implementation of StreamBuilder.
type RefStreamBuilder struct {
	idx     *Index
	seq     uint32
	stack   []PathID
	meta    map[*noderep.Node]refStreamMeta
	openSeq []uint32 // seq per still-open element, parallel to stack

	// One-entry InternPath memo: document order visits runs of same-label
	// siblings (rows, lines, items), which all share one summary path.
	lastParent PathID
	lastLabel  dict.LabelID
	lastPath   PathID
	lastOK     bool
}

// NewRefStreamBuilder returns an empty reference builder.
func NewRefStreamBuilder() *RefStreamBuilder {
	return &RefStreamBuilder{
		idx:  NewIndex(),
		meta: make(map[*noderep.Node]refStreamMeta),
	}
}

// Enter records an element (or attribute aggregate) opening.
func (b *RefStreamBuilder) Enter(n *noderep.Node) {
	parent := NilPath
	if len(b.stack) > 0 {
		parent = b.stack[len(b.stack)-1]
	} else {
		b.idx.root = n.Label
	}
	path := b.lastPath
	if !b.lastOK || parent != b.lastParent || n.Label != b.lastLabel {
		path = b.idx.InternPath(parent, n.Label)
		b.lastParent, b.lastLabel, b.lastPath, b.lastOK = parent, n.Label, path, true
	}
	b.idx.paths[path].Count++
	b.openSeq = append(b.openSeq, b.seq)
	b.seq++
	b.stack = append(b.stack, path)
}

// Literal records a text leaf.
func (b *RefStreamBuilder) Literal() {
	b.seq++
}

// Exit records an element closing; its subtree size is now known.
func (b *RefStreamBuilder) Exit(n *noderep.Node) error {
	if len(b.openSeq) == 0 {
		return fmt.Errorf("pathindex: Exit of unentered node")
	}
	seq := b.openSeq[len(b.openSeq)-1]
	b.openSeq = b.openSeq[:len(b.openSeq)-1]
	path := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	b.meta[n] = refStreamMeta{seq: seq, size: b.seq - seq - 1, path: path}
	return nil
}

// OnRecord completes the postings of the elements an emitted record
// holds.
func (b *RefStreamBuilder) OnRecord(rid records.RID, root *noderep.Node) error {
	local := 0
	var firstErr error
	root.Walk(func(n *noderep.Node) bool {
		facade := n.Kind == noderep.KindLiteral ||
			(n.Kind == noderep.KindAggregate && !n.Scaffold)
		if !facade {
			return true
		}
		if n.Kind == noderep.KindAggregate {
			m, ok := b.meta[n]
			if !ok {
				firstErr = fmt.Errorf("pathindex: record %s holds an unregistered element", rid)
				return false
			}
			if local > math.MaxUint16 {
				firstErr = fmt.Errorf("pathindex: facade index %d exceeds uint16 in record %s", local, rid)
				return false
			}
			b.idx.postings[n.Label] = append(b.idx.postings[n.Label], Posting{
				Seq: m.seq, Size: m.size, RID: rid, Local: uint16(local), Path: m.path,
			})
			delete(b.meta, n)
		}
		local++
		return true
	})
	return firstErr
}

// Finish seals the index, sorting each label's list into document order.
func (b *RefStreamBuilder) Finish() (*Index, error) {
	if len(b.stack) != 0 || len(b.openSeq) != 0 {
		return nil, fmt.Errorf("pathindex: %d elements still open", len(b.openSeq))
	}
	if len(b.meta) != 0 {
		return nil, fmt.Errorf("pathindex: %d elements never reached a record", len(b.meta))
	}
	b.idx.nodes = b.seq
	for label := range b.idx.postings {
		list := b.idx.postings[label]
		sort.Slice(list, func(i, j int) bool { return list[i].Seq < list[j].Seq })
	}
	return b.idx, nil
}

// DiffIndex returns a description of the first difference between two
// indexes (summary, counts, root, node total, every posting list), or
// "" when they are deeply equal.
func DiffIndex(got, want *Index) string {
	switch {
	case got.root != want.root:
		return fmt.Sprintf("root label %d, want %d", got.root, want.root)
	case got.nodes != want.nodes:
		return fmt.Sprintf("%d nodes, want %d", got.nodes, want.nodes)
	case !reflect.DeepEqual(got.paths, want.paths):
		return fmt.Sprintf("summary %+v, want %+v", got.paths, want.paths)
	case !reflect.DeepEqual(got.byPath, want.byPath):
		return "summary trie edges differ"
	case len(got.postings) != len(want.postings):
		return fmt.Sprintf("%d posting lists, want %d", len(got.postings), len(want.postings))
	}
	for label, list := range want.postings {
		g := got.postings[label]
		if len(g) != len(list) {
			return fmt.Sprintf("label %d: %d postings, want %d", label, len(g), len(list))
		}
		for i := range list {
			if g[i] != list[i] {
				return fmt.Sprintf("label %d posting %d: %+v, want %+v", label, i, g[i], list[i])
			}
		}
	}
	return ""
}

// DiffStored holds what the store persisted for name to want: the
// decoded index must be deeply equal to it, and every blob byte-equal
// to want's encoding (the summary's directory carries the stored blobs'
// own RIDs). It returns "" when both hold.
func DiffStored(s *Store, name string, want *Index) (string, error) {
	s.InvalidateCache() // decode from the blobs, not the builder's own lists
	h, err := s.Get(name)
	if err != nil {
		return "", err
	}
	if h == nil {
		return "no index stored", nil
	}
	got := &Index{
		paths:    h.sum.paths,
		postings: make(map[dict.LabelID][]Posting),
		byPath:   make(map[pathKey]PathID),
		root:     h.sum.root,
		nodes:    h.sum.nodes,
	}
	for id, pn := range got.paths[1:] {
		got.byPath[pathKey{pn.Parent, pn.Label}] = PathID(id + 1)
	}
	for _, label := range h.PostingLabels() {
		list, err := h.Postings(label)
		if err != nil {
			return "", err
		}
		got.postings[label] = list
		blob, err := s.blobs.Read(h.sum.dir[label].rid)
		if err != nil {
			return "", err
		}
		if !bytes.Equal(blob, encodePostings(nil, want.postings[label])) {
			return fmt.Sprintf("label %d: stored postings blob differs from the reference encoding", label), nil
		}
	}
	if d := DiffIndex(got, want); d != "" {
		return d, nil
	}
	id := s.view.Load().entries[name]
	blob, err := s.blobs.Read(id)
	if err != nil {
		return "", err
	}
	if !bytes.Equal(blob, encodeSummary(nil, summaryOf(want, h.sum.dir))) {
		return "stored summary blob differs from the reference encoding", nil
	}
	return "", nil
}
