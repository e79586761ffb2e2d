package docstore

import (
	"context"
	"sync"

	"natix/internal/core"
	"natix/internal/dict"
	"natix/internal/pathindex"
	"natix/internal/records"
	"natix/internal/xmlkit"
)

// The path evaluator. The semantics of the language's four constructs
// (query.go) are written once, in machine.Next. A stored tree that is
// navigated, one answered from its path index and a flat document that
// is parsed differ only in where a step's candidates come from: a source
// answers "the candidates of (context node, axis, name test) in document
// order" and nothing else. The first step's context is the document
// node, the virtual parent of the root element, so a leading /A can only
// select the root and a leading //A ranges over every node, root
// included. Next returns one match and keeps its place, so nothing is
// produced ahead of the consumer.

// nameKind is what a step's name test selects.
type nameKind uint8

const (
	nameLabel nameKind = iota // elements (and "@attr" aggregates) of one name
	nameAny                   // "*": every element; "@attr" aggregates are not elements
	nameText                  // "#text": text nodes
	nameNever                 // a name the dictionary never interned: on no stored node
)

// frame is one location step readied for an evaluation: its name test
// resolved once and, while a machine runs, how many candidates it has
// matched under the current context node.
type frame struct {
	Step
	kind     nameKind
	label    dict.LabelID        // nameLabel against stored nodes
	postings []pathindex.Posting // the label's list, on the indexed route (indexFor)
	count    int
}

// compile readies steps for one evaluation. With a dictionary the name
// tests are resolved to label ids (stored documents); without one names
// are compared as strings (parsed documents).
func compile(steps []Step, d *dict.Dict) []frame {
	frames := make([]frame, len(steps))
	for i, st := range steps {
		f := &frames[i]
		f.Step = st
		switch {
		case st.Name == "*":
			f.kind = nameAny
		case st.Name == "#text":
			f.kind = nameText
		case d != nil:
			var ok bool
			if f.label, ok = d.Lookup(st.Name); !ok {
				f.kind = nameNever
			}
		}
	}
	return frames
}

// matchesLabel applies the name test to the label of a stored element.
func (f *frame) matchesLabel(d *dict.Dict, label dict.LabelID) (bool, error) {
	switch f.kind {
	case nameLabel:
		return label == f.label, nil
	case nameAny:
		attr, err := d.IsAttr(label)
		return err == nil && !attr, err
	}
	return false, nil
}

// source enumerates the candidates of location steps. Step i's
// enumeration is opened under a context node — the document node when
// doc is set — and asked for one candidate at a time; opening it again
// abandons what was left, and while step i is asked no deeper step has
// an enumeration the machine comes back to. Nodes cross by pointer: they
// are a few words wide and every candidate of every step passes here.
type source[N any] interface {
	open(i int, c *N, doc bool, st *frame) error
	next(i int, st *frame, n *N) (bool, error)
	result(n *N, r *Result) error // materializes a match: Mode, and Ref or XML
	release()                     // ends the evaluation
}

// machine evaluates a compiled path over a source, one match per Next.
type machine[N any, S source[N]] struct {
	src    S
	frames []frame
	cur    N   // the candidate enumerated last; after a true Next, the match
	at     int // the step whose enumeration is advanced next; -1 when exhausted
	opened bool
}

func newMachine[N any, S source[N]](src S, frames []frame) *machine[N, S] {
	m := &machine[N, S]{src: src, frames: frames}
	for i := range frames {
		if frames[i].kind == nameNever {
			m.opened, m.at = true, -1 // some step can match nothing: the answer is empty
		}
	}
	return m
}

// Next advances to the next match in document order and leaves it in
// m.cur. All of the step semantics: candidates are enumerated per
// context node; without a position each becomes a context of the next
// step (so nested contexts of a descendant step yield a node once per
// context); with position k only the k-th does, and the enumeration is
// abandoned there. A candidate of the last step is a match.
//
//natix:noalloc
func (m *machine[N, S]) Next() (bool, error) {
	if !m.opened {
		m.opened = true
		m.frames[0].count = 0
		if err := m.src.open(0, &m.cur, true, &m.frames[0]); err != nil {
			m.at = -1
			return false, err
		}
	}
	for m.at >= 0 {
		f := &m.frames[m.at]
		if f.Pos > 0 && f.count >= f.Pos {
			m.at--
			continue
		}
		ok, err := m.src.next(m.at, f, &m.cur)
		if err != nil {
			m.at = -1
			return false, err
		}
		if !ok {
			m.at--
			continue
		}
		if f.count++; f.count < f.Pos {
			continue
		}
		if m.at == len(m.frames)-1 {
			return true, nil
		}
		m.at++
		m.frames[m.at].count = 0
		if err := m.src.open(m.at, &m.cur, false, &m.frames[m.at]); err != nil {
			m.at = -1
			return false, err
		}
	}
	return false, nil
}

// matcher is a machine with the node type erased — what a cursor, the
// eager Query and Count drive. match advances and, given a Result,
// materializes the match there (Mode, and Ref or XML).
type matcher interface {
	match(r *Result) (bool, error)
	release()
}

//natix:noalloc
func (m *machine[N, S]) match(r *Result) (bool, error) {
	ok, err := m.Next()
	if !ok || r == nil {
		return ok, err
	}
	if err := m.src.result(&m.cur, r); err != nil {
		return false, err
	}
	return true, nil
}

func (m *machine[N, S]) release() { m.src.release() }

// tree is a document walked node by node: stored records, or a parse.
type tree[N any] interface {
	rootNode() (N, error)
	children(n *N, buf []N) ([]N, error) // appended to buf, in document order
	matches(n *N, st *frame) (bool, error)
	result(n *N, r *Result)
}

// level is one node a walk is inside of: its children, and the next.
type level[N any] struct {
	kids []N
	next int
}

// walkStep is one step's part of a walk's level stack.
type walkStep struct {
	base    int  // levels below belong to the steps before
	top     int  // levels above belong to the steps after
	descend bool // the node visited last is still to be expanded
}

// walk is the source of trees: a depth-first traversal on one explicit
// stack of levels. A step's levels sit on top of those of the steps
// before it, which are suspended on its context node, so child buffers
// are reused across the evaluation and, for stored trees, pooled across
// evaluations. A descendant step expands a node only when the machine
// asks for the candidate after it, so what follows a positional cut-off
// or a closed cursor is never loaded. The context is checked before
// every expansion, that is before every record access.
type walk[N any, T tree[N]] struct {
	t      T
	cx     context.Context // nil when it can never be cancelled
	levels []level[N]
	depth  int
	steps  []walkStep
	pool   *sync.Pool // where release parks a walk over a stored tree
}

// The two walks: over stored records, and over a parsed flat document.
type (
	recordWalk = walk[core.ReadRef, recordTree]
	parsedWalk = walk[*xmlkit.Node, *parsedTree]
)

// reset readies w for an evaluation of the given number of steps.
func (w *walk[N, T]) reset(t T, cx context.Context, steps int) *walk[N, T] {
	if cx != nil && cx.Done() == nil {
		cx = nil // asked once here, not per expansion
	}
	w.t, w.cx, w.depth = t, cx, 0
	if cap(w.steps) < steps {
		w.steps = make([]walkStep, steps)
	}
	w.steps = w.steps[:steps]
	return w
}

// level returns the level above the current top, emptied.
//
//natix:noalloc
func (w *walk[N, T]) level() *level[N] {
	if w.depth == len(w.levels) {
		w.levels = append(w.levels, level[N]{})
	}
	lv := &w.levels[w.depth]
	lv.kids, lv.next = lv.kids[:0], 0
	return lv
}

// push makes n's children the top level; a leaf adds none.
//
//natix:noalloc
func (w *walk[N, T]) push(n *N) error {
	if w.cx != nil {
		if err := w.cx.Err(); err != nil {
			return err
		}
	}
	lv := w.level()
	var err error
	if lv.kids, err = w.t.children(n, lv.kids); err == nil && len(lv.kids) > 0 {
		w.depth++
	}
	return err
}

//natix:noalloc
func (w *walk[N, T]) open(i int, c *N, doc bool, st *frame) error {
	ws := &w.steps[i]
	ws.base, ws.descend = w.depth, false
	var err error
	if doc {
		// The document node's only child is the root element.
		var root N
		if root, err = w.t.rootNode(); err == nil {
			lv := w.level()
			lv.kids = append(lv.kids, root)
			w.depth++
		}
	} else {
		err = w.push(c)
	}
	ws.top = w.depth
	return err
}

//natix:noalloc
func (w *walk[N, T]) next(i int, st *frame, n *N) (bool, error) {
	ws := &w.steps[i]
	w.depth = ws.top // drops what an abandoned later step left
	for {
		if ws.descend {
			ws.descend = false
			lv := &w.levels[w.depth-1]
			if err := w.push(&lv.kids[lv.next-1]); err != nil {
				return false, err
			}
		}
		if w.depth == ws.base {
			ws.top = w.depth
			return false, nil
		}
		lv := &w.levels[w.depth-1]
		if lv.next == len(lv.kids) {
			w.depth--
			continue
		}
		k := &lv.kids[lv.next]
		lv.next++
		ws.descend = st.Descendant
		if ok, err := w.t.matches(k, st); ok || err != nil {
			*n = *k
			ws.top = w.depth
			return ok, err
		}
	}
}

//natix:noalloc
func (w *walk[N, T]) result(n *N, r *Result) error {
	w.t.result(n, r)
	return nil
}

func (w *walk[N, T]) release() {
	if w.pool != nil {
		var zero T
		w.t, w.cx = zero, nil
		w.pool.Put(w)
	}
}

// recordTree navigates a stored document through its record images
// (core.ReadChildren resolves proxies and skips scaffolding).
type recordTree struct {
	s    *Store
	root records.RID
}

func (t recordTree) rootNode() (core.ReadRef, error) {
	return t.s.trees.ReadRoot(t.root)
}

//natix:noalloc
func (t recordTree) children(n *core.ReadRef, buf []core.ReadRef) ([]core.ReadRef, error) {
	return t.s.trees.ReadChildren(n, buf)
}

//natix:noalloc
func (t recordTree) matches(n *core.ReadRef, st *frame) (bool, error) {
	if n.IsLiteral() {
		return st.kind == nameText, nil
	}
	return st.matchesLabel(t.s.dict, n.Label())
}

//natix:noalloc
func (recordTree) result(n *core.ReadRef, r *Result) { r.Mode, r.Ref = ModeTree, *n }

// parsedTree is a flat-mode document: "Accessing the documents'
// structure is only possible through parsing" (§1), so the first access
// reads and parses the whole stream. Attributes are not nodes here.
type parsedTree struct {
	s    *Store
	blob records.RID
	root *xmlkit.Node
}

func (t *parsedTree) rootNode() (*xmlkit.Node, error) {
	if t.root == nil {
		body, err := t.s.blobs.Read(t.blob)
		if err != nil {
			return nil, err
		}
		doc, err := xmlkit.ParseString(string(body), xmlkit.ParseOptions{})
		if err != nil {
			return nil, err
		}
		t.root = doc.Root
	}
	return t.root, nil
}

//natix:noalloc
func (*parsedTree) children(n **xmlkit.Node, buf []*xmlkit.Node) ([]*xmlkit.Node, error) {
	return append(buf, (*n).Children...), nil
}

//natix:noalloc
func (*parsedTree) matches(np **xmlkit.Node, st *frame) (bool, error) {
	n := *np
	if n.IsText() {
		return st.kind == nameText, nil
	}
	return st.kind == nameAny || st.kind == nameLabel && n.Name == st.Name, nil
}

//natix:noalloc
func (*parsedTree) result(n **xmlkit.Node, r *Result) { r.Mode, r.XML = ModeFlat, *n }
