package docstore

import (
	"context"
	"errors"

	"natix/internal/core"
	"natix/internal/dict"
	"natix/internal/pathindex"
)

// The indexed evaluator answers a whole query from the path index when
// every step is a plain element name test: context sets are posting
// lists instead of node refs, descendant steps become binary-searched
// containment ranges over the step label's postings, and child steps
// additionally require the summary path of the candidate to extend the
// context node's path by exactly one label. Only the final matches are
// resolved to records; non-matching subtrees are never visited.
//
// Like the scan, the evaluator is a streaming producer: postings are
// pushed to an emit callback in document order and the recursion
// unwinds as soon as the callback asks it to stop, so a cursor that is
// closed (or a positional predicate that has been satisfied) stops
// probing posting lists. Posting blobs load lazily, one label at a
// time, on first probe.
//
// The semantics mirror the scan path exactly — per-context match lists,
// positional predicates applied per context node (globally for the
// first step), duplicates preserved for nested descendant contexts —
// so the two paths return identical results.

// indexFor returns a handle on the document's index when the query can
// use it: indexing is enabled, the document has a stored index, and
// every step is a plain name test (the "*" and "#text" tests match
// nodes the postings do not cover, so those queries fall back to the
// scan path). The summary and the posting lists of the step labels are
// loaded here, so that what cannot be read is found out before the
// evaluation starts; they stay cached in the handle, so a warm query
// pays a map lookup per step and indexedStep's own loads are hits.
func (s *Store) indexFor(info DocInfo, steps []Step) (*pathindex.Handle, error) {
	if s.pindex == nil || !s.indexOn || info.Mode != ModeTree {
		return nil, nil
	}
	for _, st := range steps {
		if st.Name == "*" || st.Name == "#text" {
			return nil, nil
		}
	}
	h, err := s.pindex.Get(info.Name)
	for i := 0; i < len(steps) && err == nil && h != nil; i++ {
		if l, ok := s.dict.Lookup(steps[i].Name); ok {
			_, err = h.Postings(l)
		}
	}
	if errors.Is(err, pathindex.ErrCorrupt) {
		// A damaged index must not take queries down with it: the scan
		// path needs nothing from the index and is always correct.
		// ReindexDocument repairs the index.
		s.indexUnreadable.Add(1)
		return nil, nil
	}
	return h, err
}

// streamIndexed streams the query's matching postings, in the same
// order (with the same duplicates) as the scan produces node refs. Step
// names are resolved through the label dictionary up front; a name that
// was never interned cannot occur in any document and matches nothing.
// emit may return errStopIteration to stop the evaluation early; the
// context is checked before every posting-blob load.
func (s *Store) streamIndexed(cx context.Context, idx *pathindex.Handle, steps []Step, emit func(pathindex.Posting) error) error {
	labels := make([]dict.LabelID, len(steps))
	for i, st := range steps {
		l, ok := s.dict.Lookup(st.Name)
		if !ok {
			return nil
		}
		labels[i] = l
	}
	err := s.indexedStep(cx, idx, pathindex.Posting{}, true, steps, labels, emit)
	if errors.Is(err, errStopIteration) {
		return errStopIteration
	}
	return err
}

// collectIndexed materializes the streamed postings (the eager Query
// and batch-resolution path).
func (s *Store) collectIndexed(cx context.Context, idx *pathindex.Handle, steps []Step) ([]pathindex.Posting, error) {
	var posts []pathindex.Posting
	err := s.streamIndexed(cx, idx, steps, func(p pathindex.Posting) error {
		posts = append(posts, p)
		return nil
	})
	return posts, err
}

// indexedStep evaluates the remaining steps against one context
// posting, mirroring scanStep: the first step's context is the whole
// document (descendant steps feed every posting of the label, a child
// step can only match the root), later steps range over the context's
// containment interval. A positional predicate recurses into the
// selected posting and then abandons the context's enumeration.
func (s *Store) indexedStep(cx context.Context, idx *pathindex.Handle, c pathindex.Posting, isRoot bool, steps []Step, labels []dict.LabelID, emit func(pathindex.Posting) error) error {
	if len(steps) == 0 {
		return emit(c)
	}
	st, label := steps[0], labels[0]
	count := 0
	sink := func(p pathindex.Posting) error {
		count++
		if st.Pos == 0 {
			return s.indexedStep(cx, idx, p, false, steps[1:], labels[1:], emit)
		}
		if count < st.Pos {
			return nil
		}
		if err := s.indexedStep(cx, idx, p, false, steps[1:], labels[1:], emit); err != nil {
			return err
		}
		return errStepDone
	}
	// Postings load a blob on first probe of the label — page fetches,
	// so honor cancellation first.
	if err := ctxErr(cx); err != nil {
		return err
	}
	var err error
	if isRoot {
		if st.Descendant {
			// Every posting of the label, root included: postings are in
			// document order, which is what the scan produces (with the
			// root, if it matches, first).
			var list []pathindex.Posting
			if list, err = idx.Postings(label); err == nil {
				err = feedPostings(list, sink)
			}
		} else if idx.RootLabel() == label {
			var root pathindex.Posting
			var found bool
			if root, found, err = idx.Root(); err == nil && found {
				err = sink(root)
			}
		}
	} else {
		var list []pathindex.Posting
		if list, err = idx.Postings(label); err == nil {
			within := pathindex.Within(list, c)
			if st.Descendant {
				err = feedPostings(within, sink)
			} else {
				cDepth := idx.Path(c.Path).Depth
				for _, p := range within {
					pn := idx.Path(p.Path)
					if pn.Depth == cDepth+1 && pn.Parent == c.Path {
						if err = sink(p); err != nil {
							break
						}
					}
				}
			}
		}
	}
	if errors.Is(err, errStepDone) {
		return nil
	}
	return err
}

// feedPostings pushes a posting slice through sink, stopping on error.
func feedPostings(list []pathindex.Posting, sink func(pathindex.Posting) error) error {
	for _, p := range list {
		if err := sink(p); err != nil {
			return err
		}
	}
	return nil
}

// resolvePostings materializes postings as node refs (the eager Query
// path). Postings arrive in document order and a record covers a
// contiguous pre-order range, so same-record matches come in runs: each
// run costs one record load and — its facade indices ascending — one
// walk of the record, by the same core.FacadeWalker a cursor resolves
// its matches with (Iter.resolve). A duplicate posting from a nested
// descendant context can split a run; the repeat load hits the
// parsed-record cache and the walker restarts.
//
//natix:noalloc
func (s *Store) resolvePostings(posts []pathindex.Posting) ([]core.NodeRef, error) {
	if len(posts) == 0 {
		return nil, nil
	}
	out := make([]core.NodeRef, len(posts)) //natix:vet-ignore result buffer, one allocation per query
	var w core.FacadeWalker
	for i, p := range posts {
		if err := w.Load(s.trees, p.RID); err != nil {
			return nil, err
		}
		ref, err := w.Ref(int(p.Local))
		if err != nil {
			return nil, err
		}
		out[i] = ref
	}
	return out, nil
}
