package core

import (
	"errors"
	"fmt"

	"natix/internal/dict"
	"natix/internal/noderep"
	"natix/internal/records"
)

// The read path works on record images, never on decoded trees. A record
// is a small subtree inside one page, stored in pre-order. Its image is
// checked and indexed once, when a cache miss opens it (noderep.OpenImage),
// and the record cache keeps the image with its node table; so resolving
// a posting is one load from the table, and listing a node's children
// and reading its text are steps from index to index: no header is read
// again, nothing is decoded, and a query over a warm store allocates
// nothing per node. Every reader that is not a mutator reads this way —
// queries and their read-out, Cursor (Document.Walk), pathindex.Build —
// and the diagnostics that want trees decode their own (WalkRecords), as
// does the differential tests' decoded reference (Root, Children, NodeRef).
// The write path reads images too, where they lie and without a node
// table (locate.go).
//
// A cached image is an immutable string (noderep.Image), so the text a
// ReadRef reads out of its own record — TextOnly, StringValue — is a
// substring of it: no copy, however long the caller keeps it, at the
// price of keeping the whole image alive as long as the substring.

// ReadRef addresses one facade node for reading: the record it lives in,
// that record's image as the record cache holds it, and the node as the
// image's table gives it: where it lies, its place in the table and its
// type. It holds no pointer into a decoded tree, and the image it holds
// is never written — a write of the record replaces the cached image
// instead — so what lies in its own record reads as it was however long
// the ReadRef is kept. The records behind its proxies are read as they
// are when they are reached; after a write of its record, that is only
// sound once CheckCurrent passes.
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

// Clean reports whether the text of a literal or text-only element holds
// no character that needs escaping in markup.
func (r *ReadRef) Clean() bool { return r.n.Clean }

// FirstChild reads into c the first node stored in ref's content — a
// proxy as the proxy, not the record behind it — and reports false when
// there is none: ref is a leaf, a text-only element or an empty
// aggregate. NextSibling steps on from there; ReadChildren is the same
// walk with proxies followed and scaffolding spliced away.
//
//natix:noalloc
func (r *ReadRef) FirstChild(c *ReadRef) bool {
	if r.n.Kind != noderep.KindAggregate || r.n.Fused || r.n.Start == r.n.End {
		return false
	}
	c.rid, c.im = r.rid, r.im
	r.im.Node(&c.n, int(r.n.Index)+1)
	return true
}

// NextSibling moves c, a node FirstChild or NextSibling read out of
// parent's content, to the node stored behind it, and reports false past
// the last.
//
//natix:noalloc
func (c *ReadRef) NextSibling(parent *ReadRef) bool {
	if c.n.Next >= parent.n.Next {
		return false
	}
	c.im.Node(&c.n, int(c.n.Next))
	return true
}

// ChildHas reports whether a node stored in ref's content — a child as
// FirstChild and NextSibling read it, a proxy as the proxy — has a type
// pred accepts.
//
//natix:noalloc
func (r *ReadRef) ChildHas(pred func(noderep.Kind, dict.LabelID) bool) bool {
	return r.n.Kind == noderep.KindAggregate && !r.n.Fused && r.im.ChildHas(&r.n, pred)
}

// loadImage returns the stored image of a record, opened. A hit in the
// image cache still charges the record's pages to the buffer manager —
// its home page and, for a forwarded record, the page its body lies on,
// as the entry remembers it (records.Manager.TouchAt) — so I/O accounting
// (and eviction-driven physical reads) stay faithful; a miss copies the
// image out of its page into a string, the one the cache then keeps.
func (s *Store) loadImage(rid records.RID) (*noderep.Image, error) {
	if im, body, ok := s.cache.image(rid); ok {
		s.stats.cacheHits.Add(1)
		if err := s.rm.TouchAt(rid, body); err != nil {
			return nil, err
		}
		return im, nil
	}
	if s.cache != nil {
		s.stats.cacheMisses.Add(1)
	}
	buf, body, err := s.rm.ReadString(rid)
	if err != nil {
		return nil, err
	}
	im, err := noderep.OpenImage(buf)
	if err != nil {
		return nil, fmt.Errorf("record %s: %w", rid, err)
	}
	s.cache.putImage(rid, im, body)
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
	im.Node(&r.n, 0)
	return nil
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
	return s.appendReadChildren(ref.rid, ref.im, int(ref.n.Index)+1, int(ref.n.Next), buf)
}

// appendReadChildren appends the logical children of an aggregate of im,
// record rid's image: its first child is node c, and its subtree ends
// before node end.
//
//natix:noalloc
func (s *Store) appendReadChildren(rid records.RID, im *noderep.Image, c, end int, out []ReadRef) ([]ReadRef, error) {
	for c < end {
		out = append(out, ReadRef{})
		r := &out[len(out)-1]
		r.rid, r.im = rid, im // field by field: a staged literal copied in stalls
		im.Node(&r.n, c)
		c = int(r.n.Next)
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
		root, first, last := r.im, int(r.n.Index)+1, int(r.n.Next)
		out = out[:len(out)-1]
		if out, err = s.appendReadChildren(target, root, first, last, out); err != nil {
			return out, err
		}
	}
	return out, nil
}

// AppendReadText appends the text content of the subtree under ref to
// buf and returns the extended slice: AppendText over images. A record's
// part of the subtree is the run of its table from the node to the index
// behind its subtree, with the records behind proxies read as they are
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
	}
	return s.appendText(ref.im, int(ref.n.Index), buf)
}

// appendText appends the text of node i of im, an aggregate, and of
// every node of its subtree, the records behind its proxies included.
// It holds no ReadRef, so following a proxy allocates nothing.
//
//natix:noalloc
func (s *Store) appendText(im *noderep.Image, i int, buf []byte) ([]byte, error) {
	var n noderep.ImageNode
	im.Node(&n, i)
	for end := int(n.Next); i < end; i++ {
		im.Node(&n, i)
		switch n.Kind {
		case noderep.KindAggregate:
			if n.Fused {
				buf = append(buf, im.Payload(&n)...)
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
			child, err := s.loadImage(target)
			if err != nil {
				return buf, err
			}
			if buf, err = s.appendText(child, 0, buf); err != nil {
				return buf, err
			}
		}
	}
	return buf, nil
}

// FacadeWalker resolves (record, facade index) addresses to ReadRefs. It
// keeps the record it last loaded, so a run of postings in one record —
// they arrive in runs, in document order — costs one record access in
// total, and resolving each is one load from the record's node table, in
// any order.
//
// The walker belongs to one reader (a query cursor), never to the Store.
// The zero value is ready to use and never allocates.
type FacadeWalker struct {
	rid records.RID
	im  *noderep.Image // the loaded record's image; nil before the first Load
}

// Load makes record rid the walker's record. When the walker is already
// on rid it returns at once — the image it holds is immutable — so a run
// of addresses in one record costs one record access (one logical read
// through the buffer pool) in total; any other rid is loaded like any
// record.
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
	w.im, w.rid = im, rid
	return nil
}

// Ref resolves facade index idx of the loaded record into *r (with no
// record loaded, every index is missing). It does not allocate.
//
//natix:noalloc
func (w *FacadeWalker) Ref(idx int, r *ReadRef) error {
	if w.im == nil || !w.im.Facade(&r.n, idx) {
		return fmt.Errorf("core: facade node %d missing in record %s", idx, w.rid) //natix:vet-ignore corrupt-record path
	}
	r.rid, r.im = w.rid, w.im
	return nil
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
