package core

import (
	"fmt"

	"natix/internal/noderep"
	"natix/internal/records"
)

// CheckInvariants walks every record reachable from the tree root and
// verifies the physical invariants the storage manager maintains:
//
//   - every record's encoded size fits the net page capacity, and its
//     stored image has the length its tree encodes to in the image's
//     format version;
//   - every record's subtree is structurally valid (noderep.Validate);
//   - scaffolding aggregates appear only as record roots, and the tree's
//     root record is rooted in a facade node;
//   - every proxy resolves to a record whose standalone parent pointer
//     names the record holding the proxy;
//   - the record graph is a tree (no sharing, no cycles);
//   - scaffolding records are never empty.
//
// It is exercised heavily by tests and by cmd/natix-inspect.
func (t *Tree) CheckInvariants() error {
	s := t.store
	seen := make(map[records.RID]bool)
	// A layout of its own: checks run under read locks, beside the writer
	// that owns the store's scratch.
	var l noderep.Layout
	var walk func(rid, wantParent records.RID, isRoot bool) error
	walk = func(rid, wantParent records.RID, isRoot bool) error {
		if seen[rid] {
			return fmt.Errorf("record %s reachable twice", rid)
		}
		seen[rid] = true
		rec, err := s.loadRecord(rid)
		if err != nil {
			return fmt.Errorf("record %s: %w", rid, err)
		}
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
		} else if want := l.StoredSize(rec); stored != want {
			return fmt.Errorf("record %s: stored image has %d bytes, its tree encodes to %d", rid, stored, want)
		}
		if rec.ParentRID != wantParent {
			return fmt.Errorf("record %s: parent RID %s, want %s", rid, rec.ParentRID, wantParent)
		}
		if isRoot && rec.Root.Scaffold {
			return fmt.Errorf("root record %s rooted in scaffolding", rid)
		}
		if rec.Root.Scaffold && len(rec.Root.Children) == 0 {
			return fmt.Errorf("record %s: empty scaffolding record", rid)
		}
		var firstErr error
		rec.Root.Walk(func(n *noderep.Node) bool {
			if n.Kind == noderep.KindProxy {
				if err := walk(n.Target, rid, false); err != nil && firstErr == nil {
					firstErr = err
					return false
				}
			}
			return true
		})
		return firstErr
	}
	return walk(t.rootRID, records.NilRID, true)
}

// RecordCount returns the number of records the tree currently occupies.
func (t *Tree) RecordCount() (int, error) {
	s := t.store
	count := 0
	var walk func(rid records.RID) error
	walk = func(rid records.RID) error {
		count++
		rec, err := s.loadRecord(rid)
		if err != nil {
			return err
		}
		var firstErr error
		rec.Root.Walk(func(n *noderep.Node) bool {
			if n.Kind == noderep.KindProxy {
				if err := walk(n.Target); err != nil && firstErr == nil {
					firstErr = err
					return false
				}
			}
			return true
		})
		return firstErr
	}
	if err := walk(t.rootRID); err != nil {
		return 0, err
	}
	return count, nil
}
