package docstore

import (
	"context"
	"errors"
	"fmt"

	"natix/internal/core"
	"natix/internal/pathindex"
)

// indexFor returns a handle on the document's index when the query can
// use it: indexing is enabled, the document has a stored index, and
// every step is a plain name test (the "*" and "#text" tests match
// nodes the postings do not cover, so those queries are navigated). The
// posting list of each step's label is taken here, into the step's
// frame, so that what cannot be read is found out before the evaluation
// starts, and an evaluation enumerates windows of those lists without
// going back to the handle.
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
			frames[i].postings, err = h.Postings(frames[i].label)
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

// summaryPlan is what the path summary settles about an indexed query
// with no positional predicate (exact; the zero plan otherwise): its
// match count, and whether the machine would yield its matches each once
// and in document order, so that one scan of the last label's postings,
// kept by summary path, yields them (scan). That takes both checks —
// DESIGN.md, "Path index", says why.
type summaryPlan struct {
	exact   bool
	count   int64
	scan    bool
	nestAt  int    // the first child step whose contexts nest; -1 if none
	maxMult int64  // the most contexts any match is reached from
	paths   int    // summary paths of the answer
	keep    []bool // scan, when asked for: the answer's paths, nil if they are all of the label's
}

// planSummary runs the summary walk over an indexed query's steps; with
// keep, a scan's path set is built unless it is all of the label's.
func (s *Store) planSummary(idx *pathindex.Handle, frames []frame, keep bool) summaryPlan {
	for i := range frames {
		if frames[i].Pos > 0 {
			return summaryPlan{}
		}
	}
	w := s.summaryWalk(idx)
	defer s.walks.Put(w)
	p := summaryPlan{exact: true, nestAt: -1}
	for i := range frames {
		if i > 0 && !frames[i].Descendant && p.nestAt < 0 && w.nested() {
			p.nestAt = i
		}
		p.count = w.step(s.dict, &frames[i])
	}
	last := &frames[len(frames)-1]
	all := true
	for q, m := range w.mult {
		if m > 0 {
			p.paths++
			p.maxMult = max(p.maxMult, m)
		} else if q > 0 && idx.Path(pathindex.PathID(q)).Label == last.label {
			all = false
		}
	}
	p.scan = p.nestAt < 0 && p.maxMult <= 1
	if p.scan && keep && !all {
		p.keep = make([]bool, len(w.mult))
		for q, m := range w.mult {
			p.keep[q] = m > 0
		}
	}
	return p
}

// route names the route for Explain; last is the last step's name.
func (p summaryPlan) route(last string) string {
	switch {
	case !p.exact:
		return "step by step over the postings (a positional predicate: the path summary bounds the count, it does not settle it)"
	case p.scan:
		return fmt.Sprintf("count from the path summary; matches by one scan of %s's postings on %d of the summary's paths", last, p.paths)
	case p.nestAt >= 0:
		return fmt.Sprintf("count from the path summary; matches step by step (the contexts of step %d nest)", p.nestAt+1)
	}
	return fmt.Sprintf("count from the path summary; matches step by step (a match is reached from %d contexts)", p.maxMult)
}

// postings is the source of indexed documents: a candidate is a
// posting, a step's enumeration a window of its label's document-order
// posting list — the whole list under the document node, the
// binary-searched containment range of the context posting otherwise —
// and a child step keeps of that window the postings whose summary path
// extends the context's by exactly one label. A query run as one scan
// (summaryPlan) has one frame, its last step's under the document node,
// which keeps the postings on the answer's summary paths. Non-matching
// subtrees are never visited and no record is loaded until a match is
// asked for as a Result. The lists are the frames' (indexFor took them);
// the context is still checked per enumeration.
type postings struct {
	trees  *core.Store
	cx     context.Context
	idx    *pathindex.Handle
	frames []postingFrame
	one    [1]postingFrame // frames of a query run as one scan

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
	keep   []bool           // when set, keep only postings on these summary paths
}

//natix:noalloc
func (p *postings) open(i int, c *pathindex.Posting, doc bool, st *frame) error {
	if err := ctxErr(p.cx); err != nil {
		return err
	}
	list := st.postings
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
		if f.child && p.idx.Path(c.Path).Parent != f.parent || f.keep != nil && !f.keep[c.Path] {
			continue
		}
		*n = *c
		return true, nil
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
