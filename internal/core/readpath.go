package core

import (
	"errors"
	"fmt"
	"math"

	"natix/internal/dict"
	"natix/internal/noderep"
	"natix/internal/records"
)

// The read path works on record images, never on decoded trees. A record
// is a small subtree inside one page, stored in pre-order (noderep.Image),
// so resolving a posting, listing a node's children and reading its text
// are passes over headers in the image the record cache holds: nothing is
// decoded, and a query over a warm store allocates nothing per node.
// Every reader that is not a mutator reads this way — queries and their
// read-out, Cursor (Document.Walk), pathindex.Build — and the diagnostics
// that want trees decode their own (WalkRecords). The decoded tree
// (loadRecord, NodeRef) is the write path's, and the differential tests'
// reference (Root, Children).
//
// A cached image is an immutable string (noderep.Image), so the text a
// ReadRef reads out of its own record — TextOnly, StringValue — is a
// substring of it: no copy, however long the caller keeps it, at the
// price of keeping the whole image alive as long as the substring.

// ReadRef addresses one facade node for reading: the record it lives in,
// that record's image as the record cache holds it, and where the node
// lies in the image, its type read from its header. It holds no pointer
// into a decoded tree, and the image it holds is never written — a write
// of the record replaces the cached image instead — so what lies in its
// own record reads as it was however long the ReadRef is kept. The
// records behind its proxies are read as they are when they are reached;
// after a write of its record, that is only sound once CheckCurrent
// passes.
type ReadRef struct {
	rid records.RID
	im  *noderep.Image
	n   noderep.ImageNode
}

// RID returns the record holding the node.
func (r *ReadRef) RID() records.RID { return r.rid }

// Label returns the node's label id.
func (r *ReadRef) Label() dict.LabelID { return r.n.Label }

// IsLiteral reports whether the node is a literal leaf.
func (r *ReadRef) IsLiteral() bool { return r.n.Kind == noderep.KindLiteral }

// TextOnly returns the text of a text-only element — one stored with
// its text under a single header — as a substring of the record image;
// ok is false for every other node.
func (r *ReadRef) TextOnly() (text string, ok bool) {
	if !r.n.Fused {
		return "", false
	}
	return r.im.Payload(&r.n), true
}

// StringValue returns the character data of a string or URI literal, a
// substring of the record image; for any other node the error
// noderep.Node.StringValue reports.
func (r *ReadRef) StringValue() (string, error) {
	return noderep.StringPayload(r.n.Kind, r.n.LitType, r.im.Payload(&r.n))
}

// RecordHas reports whether the type table of ref's record holds a type
// pred accepts (noderep.Image.TableHas).
//
//natix:noalloc
func (r *ReadRef) RecordHas(pred func(noderep.Kind, dict.LabelID) bool) bool {
	return r.im.TableHas(pred)
}

// FirstChild reads into c the first node stored in ref's content — a
// proxy as the proxy, not the record behind it — and reports false when
// there is none: ref is a leaf, a text-only element or an empty
// aggregate. NextSibling steps on from there; ReadChildren is the same
// walk with proxies followed and scaffolding spliced away.
//
//natix:noalloc
func (r *ReadRef) FirstChild(c *ReadRef) (bool, error) {
	if r.n.Kind != noderep.KindAggregate || r.n.Fused || r.n.Start == r.n.End {
		return false, nil
	}
	c.rid, c.im = r.rid, r.im
	err := r.im.Child(&c.n, int(r.n.Start), int(r.n.End))
	return err == nil, err
}

// NextSibling moves c, a node FirstChild or NextSibling read out of
// parent's content, to the node stored behind it, and reports false past
// the last.
//
//natix:noalloc
func (c *ReadRef) NextSibling(parent *ReadRef) (bool, error) {
	if c.n.End >= parent.n.End {
		return false, nil
	}
	err := c.im.Child(&c.n, int(c.n.End), int(parent.n.End))
	return err == nil, err
}

// ChildHas reports whether a node stored in ref's content — a child as
// FirstChild and NextSibling read it, a proxy as the proxy — has a type
// pred accepts, reading no more than the children's headers.
//
//natix:noalloc
func (r *ReadRef) ChildHas(pred func(noderep.Kind, dict.LabelID) bool) (bool, error) {
	if r.n.Kind != noderep.KindAggregate || r.n.Fused {
		return false, nil
	}
	return r.im.ChildHas(int(r.n.Start), int(r.n.End), pred)
}

// openImage opens buf, record rid's image, for the cache.
func openImage(rid records.RID, buf string) (*noderep.Image, error) {
	im, err := noderep.OpenImage(buf)
	if err != nil {
		return nil, fmt.Errorf("record %s: %w", rid, err)
	}
	return &im, nil
}

// loadImage returns the stored image of a record, opened. A cache hit
// still touches the record's page through the buffer manager, as
// loadRecord's does, so I/O accounting (and eviction-driven physical
// reads) stay faithful; a miss copies the image out of its page into a
// string, the one the cache then keeps.
func (s *Store) loadImage(rid records.RID) (*noderep.Image, error) {
	if s.cache != nil {
		if im, ok := s.cache.image(rid); ok {
			s.stats.cacheHits.Add(1)
			if err := s.rm.Touch(rid); err != nil {
				return nil, err
			}
			return im, nil
		}
		s.stats.cacheMisses.Add(1)
	}
	buf, err := s.rm.ReadString(rid)
	if err != nil {
		return nil, err
	}
	im, err := openImage(rid, buf)
	if err != nil {
		return nil, err
	}
	if s.cache != nil {
		s.cache.putImage(rid, im)
	}
	return im, nil
}

// CheckCurrent reports ErrStaleRef unless record ref.RID still stores
// the image ref holds. A ReadRef kept past a write of its record reads a
// copy whose proxies may name records since deleted, merged into their
// parent or reused for other records; one that passes reads, from its
// own record down, what a fresh read would. The check is one record
// access, a hit in the record cache unless the record was written.
func (s *Store) CheckCurrent(ref *ReadRef) error {
	im, err := s.loadImage(ref.rid)
	switch {
	case errors.Is(err, records.ErrNotFound):
		return fmt.Errorf("%w: record %s is gone", ErrStaleRef, ref.rid)
	case err != nil:
		return err
	case im != ref.im && im.Data() != ref.im.Data():
		return fmt.Errorf("%w: record %s", ErrStaleRef, ref.rid)
	}
	return nil
}

// ReadRoot returns the root node of record rid — for a tree's root
// record, the tree's logical root.
func (s *Store) ReadRoot(rid records.RID) (ReadRef, error) {
	var r ReadRef
	err := s.readRoot(rid, &r)
	return r, err
}

// readRoot is ReadRoot into *r.
//
//natix:noalloc
func (s *Store) readRoot(rid records.RID, r *ReadRef) error {
	im, err := s.loadImage(rid)
	if err != nil {
		return err
	}
	r.rid, r.im = rid, im
	return im.Root(&r.n)
}

// ReadChildren appends the logical children of ref to buf in document
// order and returns the extended slice: Children over images. The
// records behind proxies are loaded as they are reached, and scaffolding
// aggregates are spliced away.
//
//natix:noalloc
func (s *Store) ReadChildren(ref *ReadRef, buf []ReadRef) ([]ReadRef, error) {
	if ref.n.Kind != noderep.KindAggregate {
		return buf, nil
	}
	if ref.n.Fused {
		// The element's content is its text, a node without a header.
		buf = append(buf, *ref)
		buf[len(buf)-1].n.ToText()
		return buf, nil
	}
	return s.appendReadChildren(ref.rid, ref.im, int(ref.n.Start), int(ref.n.End), buf)
}

// appendReadChildren appends the logical children of the aggregate whose
// content is im's bytes [off, end) in record rid.
//
//natix:noalloc
func (s *Store) appendReadChildren(rid records.RID, im *noderep.Image, off, end int, out []ReadRef) ([]ReadRef, error) {
	for off < end {
		out = append(out, ReadRef{})
		r := &out[len(out)-1]
		r.rid, r.im = rid, im // field by field: a staged literal copied in stalls
		if err := im.Child(&r.n, off, end); err != nil {
			return out[:len(out)-1], err
		}
		off = int(r.n.End)
		if r.n.Kind != noderep.KindProxy {
			continue
		}
		// The proxy gives way to the root of the record it points to, or
		// a scaffolding root to its children.
		target, err := im.Target(&r.n)
		if err == nil {
			err = s.readRoot(target, r)
		}
		if err != nil {
			return out[:len(out)-1], err
		}
		if r.n.Kind != noderep.KindAggregate || !r.n.Scaffold {
			continue
		}
		child := *r
		out = out[:len(out)-1]
		if out, err = s.appendReadChildren(target, child.im, int(child.n.Start), int(child.n.End), out); err != nil {
			return out, err
		}
	}
	return out, nil
}

// AppendReadText appends the text content of the subtree under ref to
// buf and returns the extended slice: AppendText over images. A record's
// part of the subtree is one pass over the headers between the node's
// content bounds, with the records behind proxies read as they are
// reached; non-string literals contribute nothing.
//
//natix:noalloc
func (s *Store) AppendReadText(ref *ReadRef, buf []byte) ([]byte, error) {
	switch {
	case ref.n.Kind == noderep.KindLiteral:
		if noderep.IsStringType(ref.n.LitType) {
			buf = append(buf, ref.im.Payload(&ref.n)...)
		}
		return buf, nil
	case ref.n.Kind != noderep.KindAggregate:
		return buf, nil
	case ref.n.Fused:
		return append(buf, ref.im.Payload(&ref.n)...), nil
	}
	im := ref.im
	var n noderep.ImageNode
	for off, end := int(ref.n.Start), int(ref.n.End); off < end; {
		if err := im.Child(&n, off, end); err != nil {
			return buf, err
		}
		off = int(n.End)
		switch n.Kind {
		case noderep.KindAggregate:
			if n.Fused {
				buf = append(buf, im.Payload(&n)...)
			} else {
				off = int(n.Start) // into its children
			}
		case noderep.KindLiteral:
			if noderep.IsStringType(n.LitType) {
				buf = append(buf, im.Payload(&n)...)
			}
		case noderep.KindProxy:
			target, err := im.Target(&n)
			if err != nil {
				return buf, err
			}
			var child ReadRef
			if err := s.readRoot(target, &child); err != nil {
				return buf, err
			}
			if buf, err = s.AppendReadText(&child, buf); err != nil {
				return buf, err
			}
		}
	}
	return buf, nil
}

// FacadeWalker is the facade enumeration of one record's image,
// resumable: it resolves (record, facade index) addresses to ReadRefs and
// keeps its place in the pre-order walk between calls. The postings of a
// record arrive in ascending facade order, so resolving all of them costs
// one pass over the record's headers in total instead of one per posting.
// An index at or past the current one continues the walk (the current
// one again returns the same node); a lower index, or a different image
// of the record, restarts it.
//
// The walker belongs to one reader (a query cursor), never to the Store.
// The zero value is ready to use and never allocates.
type FacadeWalker struct {
	rid  records.RID
	im   *noderep.Image // the image the walk is over; nil before the first Load
	walk noderep.Facades
	idx  int  // the walk is on facade node number idx; -1 before the first, math.MaxInt past the last
	has  bool // the walk is on a node
}

// restart positions the walk before the first facade node.
//
//natix:noalloc
func (w *FacadeWalker) restart() {
	w.walk, w.idx, w.has = w.im.Facades(), -1, false
}

// Load makes record rid the walker's record. When the walker is already
// on rid it returns at once — the image it holds is immutable — so a run
// of addresses in one record costs one record access (one logical read
// through the buffer pool) in total; any other rid is loaded like any
// record. The walk keeps its place unless the image changes.
//
//natix:noalloc
func (w *FacadeWalker) Load(s *Store, rid records.RID) error {
	if w.im != nil && rid == w.rid {
		return nil
	}
	im, err := s.loadImage(rid)
	if err != nil {
		return err
	}
	if im != w.im {
		w.im = im
		w.restart()
	}
	w.rid = rid
	return nil
}

// Ref resolves facade index idx of the loaded record into *r (with no
// record loaded, every index is missing). It does not allocate.
//
//natix:noalloc
func (w *FacadeWalker) Ref(idx int, r *ReadRef) error {
	if idx < w.idx && w.im != nil {
		w.restart()
	}
	for w.idx < idx {
		ok, err := w.walk.Advance()
		if err != nil || !ok {
			w.idx, w.has = math.MaxInt, false // exhausted: any further index restarts
			if err != nil {
				return err
			}
			break
		}
		w.has = true
		w.idx++
	}
	if !w.has {
		return fmt.Errorf("core: facade node %d missing in record %s", idx, w.rid) //natix:vet-ignore corrupt-record path
	}
	r.rid, r.im = w.rid, w.im
	return w.walk.Node(&r.n)
}

// RefByFacadeIndex resolves one (record, facade index) address with a
// walker of its own: one record load and a walk from the record root up
// to the node. Callers resolving several addresses keep a FacadeWalker
// instead, which pays the walk once per record.
func (s *Store) RefByFacadeIndex(rid records.RID, idx int) (ReadRef, error) {
	var (
		w FacadeWalker
		r ReadRef
	)
	err := w.Load(s, rid)
	if err == nil {
		err = w.Ref(idx, &r)
	}
	return r, err
}
