package core

import (
	"fmt"
	"slices"

	"natix/internal/noderep"
	"natix/internal/records"
)

// WalkRecords calls fn for every record of the tree: the root record
// first, each record before the records its proxies point to, and those
// in the order of their proxies — the record graph whose proxies,
// substituted by their records, give the document back (§2.3.3). Each
// record is read once, through the record cache's image (loadImage), and
// decoded into memory of the walk's own: no decoded tree enters the
// cache, so the walk leaves the images the read path works on where they
// were. The tree fn gets is valid until fn returns. A record reached a
// second time — the graph is not a tree — ends the walk with an error, as
// does the first error fn returns.
func (t *Tree) WalkRecords(fn func(rid records.RID, rec *noderep.Record) error) error {
	return t.store.walkRecords(t.rootRID, fn)
}

// UpgradeRecords rewrites in format 5 every record of the tree whose
// image is in an older record format (noderep.Upgrade), reading each
// image straight from its page: the runtime decoder, and with it the
// record cache, reads format 5 only. A format 5 proxy counts the logical
// children its target contributes, which an older image does not say, so
// the records are listed first, as WalkRecords visits them, and
// rewritten in the reverse order, every record after the records its
// proxies point to: their counts are known by then. A record whose
// counts make it outgrow its page is split in place, as a root record
// is (§3.2.2): its separator stays under its RID, so the record holding
// its proxy, and its count there, do not change. It returns how many
// records it rewrote; a tree already in format 5 is read and not
// written.
func (t *Tree) UpgradeRecords() (int, error) {
	s := t.store
	var (
		buf   []byte
		order []records.RID
	)
	if err := s.walkRecordsWith(t.rootRID, func(rid records.RID, todo []records.RID) ([]records.RID, error) {
		rec, _, err := s.readAnyFormat(rid, &buf)
		if err != nil {
			return todo, err
		}
		order = append(order, rid)
		return appendTargets(todo, rec), nil
	}); err != nil {
		return 0, err
	}
	counts := make(map[records.RID]uint32, len(order))
	upgraded := 0
	for i := len(order) - 1; i >= 0; i-- {
		rid := order[i]
		rec, old, err := s.readAnyFormat(rid, &buf)
		if err != nil {
			return upgraded, err
		}
		if old {
			rec.Root.Walk(func(n *noderep.Node) bool {
				if n.Kind == noderep.KindProxy {
					n.Count = counts[n.Target]
				}
				return true
			})
			if err := t.upgradeRecord(rid, rec); err != nil {
				return upgraded, fmt.Errorf("record %s: %w", rid, err)
			}
			upgraded++
		}
		counts[rid] = noderep.LogicalCount(rec.Root)
	}
	return upgraded, nil
}

// readAnyFormat decodes record rid, whatever its format
// (noderep.Upgrade), with *buf as the scratch it reads the image into.
func (s *Store) readAnyFormat(rid records.RID, buf *[]byte) (*noderep.Record, bool, error) {
	var err error
	if *buf, err = s.rm.ReadInto(rid, (*buf)[:0]); err != nil {
		return nil, false, err
	}
	rec, old, err := noderep.Upgrade(*buf)
	if err != nil {
		return nil, false, fmt.Errorf("record %s: %w", rid, err)
	}
	return rec, old, nil
}

// upgradeRecord writes rec, upgraded and counted, as record rid: in place
// or moved (records.Manager.Update), or, when it outgrew a page, split
// into partition records with its separator left at rid.
func (t *Tree) upgradeRecord(rid records.RID, rec *noderep.Record) error {
	s := t.store
	size, err := s.measure(rec)
	if err != nil {
		return err
	}
	if size <= s.maxRecordSize() {
		return s.writeMeasured(rid, rec)
	}
	near, err := s.rm.PageOf(rid)
	if err != nil {
		return err
	}
	ctx := newOpCtx(t)
	for size > s.maxRecordSize() {
		s.stats.splits.Add(1)
		if rec.Root, err = s.separatorWithProgress(rec.Root, near, ctx); err != nil {
			return err
		}
		if size, err = s.measure(rec); err != nil {
			return err
		}
	}
	if err := s.writeMeasured(rid, rec); err != nil {
		return err
	}
	ctx.patchProxiesIn(rid, rec.Root)
	return ctx.apply()
}

// walkRecords is WalkRecords from record root down.
func (s *Store) walkRecords(root records.RID, fn func(records.RID, *noderep.Record) error) error {
	var buf []byte
	return s.walkRecordsWith(root, func(rid records.RID, todo []records.RID) ([]records.RID, error) {
		rec, err := s.decodeImage(rid, &buf)
		if err == nil {
			err = fn(rid, rec)
		}
		if err != nil {
			return todo, err
		}
		return appendTargets(todo, rec), nil
	})
}

// appendTargets appends the targets of rec's proxies, in pre-order.
func appendTargets(todo []records.RID, rec *noderep.Record) []records.RID {
	rec.Root.Walk(func(n *noderep.Node) bool {
		if n.Kind == noderep.KindProxy {
			todo = append(todo, n.Target)
		}
		return true
	})
	return todo
}

// walkRecordsWith is the record-graph walk from record root down: visit
// reads each record and appends the records its proxies point to, in the
// order of the proxies.
func (s *Store) walkRecordsWith(root records.RID, visit func(rid records.RID, todo []records.RID) ([]records.RID, error)) error {
	seen := make(map[records.RID]bool)
	todo := []records.RID{root}
	for len(todo) > 0 {
		rid := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		if seen[rid] {
			return fmt.Errorf("record %s reachable twice", rid)
		}
		seen[rid] = true
		mark := len(todo)
		var err error
		if todo, err = visit(rid, todo); err != nil {
			return err
		}
		// Stacked last to first, so the first proxy's record comes next.
		slices.Reverse(todo[mark:])
	}
	return nil
}

// decodeImage decodes record rid's image, read through the record cache,
// into a tree of the caller's own, with *buf as the decoder's scratch:
// nothing of it enters the cache.
func (s *Store) decodeImage(rid records.RID, buf *[]byte) (*noderep.Record, error) {
	im, err := s.loadImage(rid)
	if err != nil {
		return nil, err
	}
	*buf = append((*buf)[:0], im.Data()...)
	s.stats.recordsDecoded.Add(1)
	rec, err := noderep.Decode(*buf)
	if err != nil {
		return nil, fmt.Errorf("record %s: %w", rid, err)
	}
	return rec, nil
}

// CheckInvariants walks every record reachable from the tree root and
// verifies the physical invariants the storage manager maintains:
//
//   - every record's encoded size fits the net page capacity, and its
//     stored image has the length its tree encodes to;
//   - every record's subtree is structurally valid (noderep.Validate);
//   - scaffolding aggregates appear only as record roots, and the tree's
//     root record is rooted in a facade node;
//   - every proxy resolves to a record whose standalone parent pointer
//     names the record holding the proxy, and counts the logical
//     children that record contributes (noderep.LogicalCount: one for a
//     record rooted in a facade node, the sum over a scaffolding root's
//     children otherwise, a proxy there by its count);
//   - the record graph is a tree (no sharing, no cycles);
//   - scaffolding records are never empty.
//
// It is exercised heavily by tests and by cmd/natix-inspect.
func (t *Tree) CheckInvariants() error {
	s := t.store
	// A layout of its own: checks run under read locks, beside the writer
	// that owns the store's scratch.
	var l noderep.Layout
	// Every record the walk has seen a proxy to, mapped to the record
	// holding the proxy: a parent comes before its children.
	parents := map[records.RID]records.RID{t.rootRID: records.NilRID}
	// The count each proxy claims for its target, and what each record
	// contributes: a record's proxies are all seen when it is.
	claimed := map[records.RID]uint32{}
	var contributed []records.RID
	counts := map[records.RID]uint32{}
	err := t.WalkRecords(func(rid records.RID, rec *noderep.Record) error {
		if err := noderep.Measure(rec, &l); err != nil {
			return fmt.Errorf("record %s: %w", rid, err)
		}
		size := l.Size()
		if size > s.maxRecordSize() {
			return fmt.Errorf("record %s: %d bytes exceeds capacity %d", rid, size, s.maxRecordSize())
		}
		// Node edits splice the stored image and never re-measure it: the
		// image must still be exactly as long as its tree encodes to.
		if stored, err := s.rm.Size(rid); err != nil {
			return fmt.Errorf("record %s: %w", rid, err)
		} else if want := l.Size(); stored != want {
			return fmt.Errorf("record %s: stored image has %d bytes, its tree encodes to %d", rid, stored, want)
		}
		if want := parents[rid]; rec.ParentRID != want {
			return fmt.Errorf("record %s: parent RID %s, want %s", rid, rec.ParentRID, want)
		}
		if rid == t.rootRID && rec.Root.Scaffold {
			return fmt.Errorf("root record %s rooted in scaffolding", rid)
		}
		if rec.Root.Scaffold && len(rec.Root.Children) == 0 {
			return fmt.Errorf("record %s: empty scaffolding record", rid)
		}
		rec.Root.Walk(func(n *noderep.Node) bool {
			if n.Kind == noderep.KindProxy {
				parents[n.Target] = rid
				claimed[n.Target] = n.Count
			}
			return true
		})
		contributed = append(contributed, rid)
		counts[rid] = noderep.LogicalCount(rec.Root)
		return nil
	})
	if err != nil {
		return err
	}
	for _, rid := range contributed {
		if c, ok := claimed[rid]; ok && c != counts[rid] {
			return fmt.Errorf("record %s: its proxy in %s counts %d logical children, it holds %d: %w",
				rid, parents[rid], c, counts[rid], noderep.ErrCorruptRecord)
		}
	}
	return nil
}

// RecordCount returns the number of records the tree currently occupies.
func (t *Tree) RecordCount() (int, error) {
	count := 0
	if err := t.WalkRecords(func(records.RID, *noderep.Record) error {
		count++
		return nil
	}); err != nil {
		return 0, err
	}
	return count, nil
}
