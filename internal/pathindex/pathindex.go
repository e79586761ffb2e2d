// Package pathindex is a persistent structural index over tree-mode
// documents: for each document it keeps
//
//  1. a path summary — the trie of distinct root-to-node label paths
//     with per-path occurrence counts (Arion et al., "Path Summaries and
//     Path Partitioning in Modern XML Databases"), and
//  2. postings — for every element label, the document-order list of
//     logical node addresses carrying that label, each annotated with
//     its pre-order sequence number, subtree size and summary path.
//
// Together these answer the descendant steps (//NAME) of the query
// engine by probing the postings of NAME and filtering by containment
// and summary ancestry, instead of walking every record of the document.
//
// The index is derived data: it is rebuilt from the stored tree (drop +
// rebuild on delete/convert) and persisted as blobs through the record
// manager, so index pages flow through the buffer pool — and its I/O is
// accounted — like everything else.
package pathindex

import (
	"slices"

	"natix/internal/dict"
	"natix/internal/records"
)

// PathID identifies one node of the path summary. IDs are dense and
// start at 1; 0 is "no path" (the parent of the root path).
type PathID uint32

// NilPath is the parent of the root summary node.
const NilPath PathID = 0

// PathNode is one node of the path summary trie: a distinct label path
// from the document root.
type PathNode struct {
	Parent PathID       // summary parent; NilPath for the root path
	Label  dict.LabelID // last label of the path
	Depth  uint16       // number of labels on the path (root = 1)
	Count  uint32       // logical nodes with exactly this path
}

// Posting is one indexed element occurrence: a persistable logical node
// address plus the ordering information the evaluator filters on.
type Posting struct {
	Seq   uint32      // pre-order sequence number over all logical nodes
	Size  uint32      // logical nodes in the subtree below (descendants)
	RID   records.RID // record holding the node
	Local uint16      // facade index within that record (core.FacadeWalker)
	Path  PathID      // summary path of the node
}

// Contains reports whether other lies in the subtree below p.
func (p Posting) Contains(other Posting) bool {
	return other.Seq > p.Seq && other.Seq <= p.Seq+p.Size
}

// Index is the in-memory form of one document's structural index.
type Index struct {
	paths    []PathNode // paths[0] is an unused sentinel; PathID indexes
	postings map[dict.LabelID][]Posting
	byPath   map[pathKey]PathID // trie edges, for interning during builds
	root     dict.LabelID       // label of the document root
	nodes    uint32             // total logical nodes (the seq space)
}

type pathKey struct {
	parent PathID
	label  dict.LabelID
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		paths:    make([]PathNode, 1),
		postings: make(map[dict.LabelID][]Posting),
		byPath:   make(map[pathKey]PathID),
	}
}

// InternPath returns the summary node for the path extending parent by
// label, adding it (with count 0) if it does not exist yet.
func (x *Index) InternPath(parent PathID, label dict.LabelID) PathID {
	k := pathKey{parent, label}
	if id, ok := x.byPath[k]; ok {
		return id
	}
	depth := uint16(1)
	if parent != NilPath {
		depth = x.paths[parent].Depth + 1
	}
	id := PathID(len(x.paths))
	x.paths = append(x.paths, PathNode{Parent: parent, Label: label, Depth: depth})
	x.byPath[k] = id
	return id
}

// Path returns the summary node for id.
func (x *Index) Path(id PathID) PathNode { return x.paths[id] }

// NumPaths returns the number of distinct label paths.
func (x *Index) NumPaths() int { return len(x.paths) - 1 }

// NumNodes returns the total number of logical nodes in the document.
func (x *Index) NumNodes() int { return int(x.nodes) }

// RootLabel returns the label of the document root element.
func (x *Index) RootLabel() dict.LabelID { return x.root }

// Root returns the root posting (the element with sequence number 0).
func (x *Index) Root() (Posting, bool) {
	list := x.postings[x.root]
	if len(list) == 0 || list[0].Seq != 0 {
		return Posting{}, false
	}
	return list[0], true
}

// Postings returns the document-order posting list for label (nil when
// the label does not occur). The slice is shared; callers must not
// modify it.
func (x *Index) Postings(label dict.LabelID) []Posting { return x.postings[label] }

// PostingLabels returns the labels with a posting list, sorted.
func (x *Index) PostingLabels() []dict.LabelID {
	out := make([]dict.LabelID, 0, len(x.postings))
	for l := range x.postings {
		out = append(out, l)
	}
	slices.Sort(out)
	return out
}

// Within returns the sub-slice of list contained in the subtree below
// ctx (Contains). Lists are sorted by Seq, so the range is found by
// binary search: its start in the whole list, its end behind the start —
// galloping first, since a subtree mostly holds a short run of a list.
// It runs once per context node of every indexed step, so the searches
// are written out rather than given sort.Search a closure.
func Within(list []Posting, ctx Posting) []Posting {
	list = list[after(list, ctx.Seq):]
	end := ctx.Seq + ctx.Size
	hi := 1
	for hi < len(list) && list[hi].Seq <= end {
		hi *= 2
	}
	// The end lies in (hi/2, hi]: list[hi/2] is inside when hi > 1, and
	// list[hi] past it unless hi runs off the list.
	lo := hi / 2
	return list[:lo+after(list[lo:min(hi+1, len(list))], end)]
}

// after returns the index of the first posting of list whose Seq is
// above seq, len(list) if none is.
func after(list []Posting, seq uint32) int {
	lo, hi := 0, len(list)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if list[m].Seq > seq {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}
