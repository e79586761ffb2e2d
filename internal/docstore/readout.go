package docstore

import (
	"context"
	"io"

	"natix/internal/core"
	"natix/internal/dict"
	"natix/internal/noderep"
	"natix/internal/xmlkit"
)

// Reading a stored subtree out — as markup (Result.Markup, ExportXML,
// Convert) or as text (Result.Text) — is one walk over the record images
// that appends bytes: no decoded record, no intermediate xmlkit tree, no
// per-node allocation. The walk is the paper's reconstruction (§2.3.3,
// "substituting all proxies by their respective subtrees"), with the
// "@name" aggregates folded back into attributes on the way. Markup is
// one pass over each record image's node table: a tag opens where the
// walk reaches its element and closes behind its last child; text the
// table marks clean is copied, the rest escaped. Only an
// element with a proxy or an attribute among its children is expanded
// into a child list first (core.ReadChildren), which follows its proxies
// — each record is still read once, where its proxy stands — and lets
// its attributes be written before its content; a record whose type
// table holds neither has no such element, and its elements are not
// even scanned for one. Text is core.AppendReadText.

// exportChunk is the unit in which an export reaches its io.Writer:
// every Write but the last carries a whole number of chunks.
const exportChunk = 32 << 10

// What a pooled read-out scratch may keep: 128 KB of output, the child
// lists of 8192 nodes (≈ 400 KB) and a 32 KB attribute value. An export
// flushes its output in chunks and stays under the first; a Markup of a
// whole document (≈ 230 KB for a play) does not, nor does an element
// some ten thousand children wide, and such a scratch goes back to the
// GC instead of riding along with every later small read-out.
const (
	maxReadOutBytes = 4 * exportChunk
	maxReadOutRefs  = 8192
	maxReadOutVal   = exportChunk
)

// readOut is the scratch of one read-out: the output bytes, the child
// lists of the expanded elements the walk is inside of (stacked,
// innermost last) and the value of the attribute being folded. Read-outs of one
// cursor's matches may run concurrently with each other and with the
// iteration, so a scratch is taken from the Store's pool per call and
// never shared.
type readOut struct {
	out   []byte
	stack []core.ReadRef
	val   []byte
	w     io.Writer // nil: everything stays in out
}

// getReadOut takes a scratch from the pool, set up to flush to w.
func (s *Store) getReadOut(w io.Writer) *readOut {
	ro, _ := s.readPool.Get().(*readOut)
	if ro == nil {
		ro = new(readOut)
	}
	ro.w = w
	return ro
}

// putReadOut returns a scratch, emptied (an error unwind leaves child
// lists stacked) and detached from its writer — unless it has grown past
// what a parked scratch may keep.
func (s *Store) putReadOut(ro *readOut) {
	if cap(ro.out) > maxReadOutBytes || cap(ro.stack) > maxReadOutRefs || cap(ro.val) > maxReadOutVal {
		return
	}
	ro.out, ro.stack, ro.val = ro.out[:0], ro.stack[:0], ro.val[:0]
	ro.w = nil
	s.readPool.Put(ro)
}

// flush hands the whole chunks gathered so far to the writer, or with
// final set everything.
//
//natix:noalloc
func (ro *readOut) flush(final bool) error {
	if ro.w == nil {
		return nil
	}
	n := len(ro.out)
	if !final {
		n -= n % exportChunk
	}
	if n == 0 {
		return nil
	}
	if _, err := ro.w.Write(ro.out[:n]); err != nil {
		return err
	}
	ro.out = append(ro.out[:0], ro.out[n:]...)
	return nil
}

// writeXML appends the markup of the logical subtree at ref to ro.out,
// flushing whole chunks to ro.w as they fill.
//
//natix:noalloc
func (s *Store) writeXML(cx context.Context, ro *readOut, ref *core.ReadRef) error {
	if err := ctxErr(cx); err != nil {
		return err
	}
	return s.writeNode(cx, ro, ref, ref.RecordHas(s.expands))
}

// writeNode appends the text or element ref. nested says whether ref's
// record holds a type that expands (see expands).
//
//natix:noalloc
func (s *Store) writeNode(cx context.Context, ro *readOut, ref *core.ReadRef, nested bool) error {
	if ref.IsLiteral() {
		return ro.writeText(ref)
	}
	name, err := s.dict.Name(ref.Label())
	if err != nil {
		return err
	}
	return s.writeElement(cx, ro, ref, name, nested)
}

// writeText appends one text node, escaped.
//
//natix:noalloc
func (ro *readOut) writeText(ref *core.ReadRef) error {
	text, err := ref.StringValue()
	if err != nil {
		return err
	}
	ro.out = appendText(ro.out, text, ref.Clean())
	return nil
}

// appendText appends text, escaped unless the record image's table says
// it is clean: then it is copied as it is.
//
//natix:noalloc
func appendText(out []byte, text string, clean bool) []byte {
	if clean {
		return append(out, text...)
	}
	return xmlkit.AppendEscapedText(out, text)
}

// expands reports whether a child of this kind and label makes its
// element expand into a child list: a proxy, whose record may hold an
// attribute or, under a scaffolding root, several children, or an
// attribute to fold. An unknown label counts too, so that the expansion
// reports it.
func (s *Store) expands(kind noderep.Kind, label dict.LabelID) bool {
	switch kind {
	case noderep.KindProxy:
		return true
	case noderep.KindAggregate:
		attr, err := s.dict.IsAttr(label)
		return attr || err != nil
	}
	return false
}

// writeElement appends the element ref, whose name the caller has
// looked up, in one pass over its part of the record image: the tag opens
// here, each child stored in the element is written where it stands, and
// the tag closes at the element's content end. An element with a child
// that expands (expands; only looked for when nested says ref's record
// holds one) is written from its child list instead (writeExpanded).
//
//natix:noalloc
func (s *Store) writeElement(cx context.Context, ro *readOut, ref *core.ReadRef, name string, nested bool) error {
	if text, ok := ref.TextOnly(); ok {
		// Its one child is its text, a node without a header.
		ro.out = append(ro.out, '<')
		ro.out = append(ro.out, name...)
		ro.out = append(ro.out, '>')
		ro.out = appendText(ro.out, text, ref.Clean())
		ro.out = append(ro.out, "</"...)
		ro.out = append(ro.out, name...)
		ro.out = append(ro.out, '>')
		return ro.flush(false)
	}
	if nested && ref.ChildHas(s.expands) {
		return s.writeExpanded(cx, ro, ref, name)
	}
	var c core.ReadRef
	ok := ref.FirstChild(&c)
	ro.out = append(ro.out, '<')
	ro.out = append(ro.out, name...)
	if !ok {
		ro.out = append(ro.out, "/>"...)
		return ro.flush(false)
	}
	ro.out = append(ro.out, '>')
	for ; ok; ok = c.NextSibling(ref) {
		if err := s.writeNode(cx, ro, &c, nested); err != nil {
			return err
		}
	}
	ro.out = append(ro.out, "</"...)
	ro.out = append(ro.out, name...)
	ro.out = append(ro.out, '>')
	return ro.flush(false)
}

// writeExpanded appends the element ref from the list of its logical
// children (core.ReadChildren), which reads the records behind its
// proxies; the context is checked before, so once per such expansion,
// not per element. "@name" children become attributes with
// xmlkit.Node.SetAttr's semantics: a repeated name keeps the position of
// its first occurrence and the value of its last. An element whose
// children are all attributes self-closes; an empty text child does not
// count as absent.
//
//natix:noalloc
func (s *Store) writeExpanded(cx context.Context, ro *readOut, ref *core.ReadRef, name string) error {
	if err := ctxErr(cx); err != nil {
		return err
	}
	base := len(ro.stack)
	var err error
	if ro.stack, err = s.trees.ReadChildren(ref, ro.stack); err != nil {
		return err
	}
	end := len(ro.stack) // children are ro.stack[base:end]; deeper levels stack above

	ro.out = append(ro.out, '<')
	ro.out = append(ro.out, name...)
	content := 0 // children that are not attributes
	for i := base; i < end; i++ {
		k := &ro.stack[i]
		attr := false
		if !k.IsLiteral() {
			if attr, err = s.dict.IsAttr(k.Label()); err != nil {
				return err
			}
		}
		if !attr {
			content++
			continue
		}
		kname, err := s.dict.Name(k.Label())
		if err != nil {
			return err
		}
		if err := s.writeAttr(ro, base, i, end, kname[len(AttrPrefix):]); err != nil {
			return err
		}
	}
	if content == 0 {
		ro.out = append(ro.out, "/>"...)
		ro.stack = ro.stack[:base]
		return ro.flush(false)
	}
	ro.out = append(ro.out, '>')
	for i := base; i < end; i++ {
		// A child's own children stack above end: they may move ro.stack
		// to a new array, but never write below end in either.
		k := &ro.stack[i]
		if k.IsLiteral() {
			err = ro.writeText(k)
		} else {
			if content < end-base { // some children are attributes, written above
				var attr bool
				if attr, err = s.dict.IsAttr(k.Label()); attr || err != nil {
					if err != nil {
						return err
					}
					continue
				}
			}
			var kname string
			if kname, err = s.dict.Name(k.Label()); err != nil {
				return err
			}
			// A child read from behind a proxy lies in a record of its
			// own; one stored in ref's record shares its nested.
			err = s.writeElement(cx, ro, k, kname, k.RID() == ref.RID() || k.RecordHas(s.expands))
		}
		if err != nil {
			return err
		}
	}
	ro.stack = ro.stack[:base]
	ro.out = append(ro.out, "</"...)
	ro.out = append(ro.out, name...)
	ro.out = append(ro.out, '>')
	return ro.flush(false)
}

// writeAttr appends the attribute held by child i of the element whose
// children are ro.stack[base:end]. Children with the same label carry
// the same attribute name: it is written where the first of them stands
// (a later one writes nothing) with the value of the last.
//
//natix:noalloc
func (s *Store) writeAttr(ro *readOut, base, i, end int, name string) error {
	label, last := ro.stack[i].Label(), i
	for j := base; j < end; j++ {
		if k := &ro.stack[j]; j != i && !k.IsLiteral() && k.Label() == label {
			if j < i {
				return nil
			}
			last = j
		}
	}
	var err error
	if ro.val, err = s.trees.AppendReadText(&ro.stack[last], ro.val[:0]); err != nil {
		return err
	}
	ro.out = append(ro.out, ' ')
	ro.out = append(ro.out, name...)
	ro.out = append(ro.out, `="`...)
	ro.out = xmlkit.AppendEscapedAttr(ro.out, ro.val)
	ro.out = append(ro.out, '"')
	return nil
}
