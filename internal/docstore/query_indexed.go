package docstore

import (
	"context"
	"errors"

	"natix/internal/core"
	"natix/internal/pathindex"
)

// indexFor returns a handle on the document's index when the query can
// use it: indexing is enabled, the document has a stored index, and
// every step is a plain name test (the "*" and "#text" tests match
// nodes the postings do not cover, so those queries are navigated). The
// summary and the posting lists of the step labels are loaded here, so
// that what cannot be read is found out before the evaluation starts;
// they stay cached in the handle, so a warm query pays a map lookup per
// step here and per enumeration later.
func (s *Store) indexFor(info DocInfo, frames []frame) (*pathindex.Handle, error) {
	if s.pindex == nil || !s.indexOn || info.Mode != ModeTree {
		return nil, nil
	}
	for i := range frames {
		if k := frames[i].kind; k == nameAny || k == nameText {
			return nil, nil
		}
	}
	h, err := s.pindex.Get(info.Name)
	for i := 0; i < len(frames) && err == nil && h != nil; i++ {
		if frames[i].kind == nameLabel {
			_, err = h.Postings(frames[i].label)
		}
	}
	if errors.Is(err, pathindex.ErrCorrupt) {
		// A damaged index must not take queries down with it: navigating
		// needs nothing from the index and is always correct.
		// ReindexDocument repairs the index.
		s.indexUnreadable.Add(1)
		return nil, nil
	}
	return h, err
}

// postings is the source of indexed documents: a candidate is a
// posting, a step's enumeration a window of its label's document-order
// posting list — the whole list under the document node, the
// binary-searched containment range of the context posting otherwise —
// and a child step keeps of that window the postings whose summary path
// extends the context's by exactly one label. Non-matching subtrees are
// never visited and no record is loaded until a match is asked for as a
// Result; Count never loads one. Posting blobs were loaded by indexFor,
// so the lists come from the handle's cache; the context is still
// checked per enumeration.
type postings struct {
	trees  *core.Store
	cx     context.Context
	idx    *pathindex.Handle
	frames []postingFrame

	// walker resolves matches to nodes of the record images. It keeps its
	// record between matches: matches arrive in document order and a
	// record covers a contiguous pre-order range, so same-record matches
	// come in runs, and a run costs one record load in total and each
	// match one load from the record's node table. A duplicate from a
	// nested descendant context can split a run; the repeat load hits the
	// record cache.
	walker core.FacadeWalker
}

// postingFrame is one step's window and the place in it.
type postingFrame struct {
	list   []pathindex.Posting
	pos    int
	child  bool             // keep only children of the context:
	parent pathindex.PathID // their summary path hangs below this one
}

//natix:noalloc
func (p *postings) open(i int, c *pathindex.Posting, doc bool, st *frame) error {
	if err := ctxErr(p.cx); err != nil {
		return err
	}
	list, err := p.idx.Postings(st.label)
	if err != nil {
		return err
	}
	f := &p.frames[i]
	f.child = false
	switch {
	case !doc:
		list = pathindex.Within(list, *c)
		f.child, f.parent = !st.Descendant, c.Path
	case !st.Descendant:
		// The document node's only child is the root element, the node
		// with sequence number 0.
		if len(list) > 0 && list[0].Seq == 0 {
			list = list[:1]
		} else {
			list = nil
		}
	}
	f.list, f.pos = list, 0
	return nil
}

//natix:noalloc
func (p *postings) next(i int, st *frame, n *pathindex.Posting) (bool, error) {
	f := &p.frames[i]
	for f.pos < len(f.list) {
		c := &f.list[f.pos]
		f.pos++
		if !f.child || p.idx.Path(c.Path).Parent == f.parent {
			*n = *c
			return true, nil
		}
	}
	return false, nil
}

// result resolves a posting to its node through the walker.
//
//natix:noalloc
func (p *postings) result(c *pathindex.Posting, r *Result) error {
	if err := p.walker.Load(p.trees, c.RID); err != nil {
		return err
	}
	r.Mode = ModeTree
	return p.walker.Ref(int(c.Local), &r.Ref)
}

func (p *postings) release() {}
