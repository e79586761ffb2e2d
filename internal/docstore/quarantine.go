package docstore

// Document quarantine: the containment half of the integrity story.
// When the scrubber finds a corrupt page that the log cannot rebuild,
// losing the whole store to one bad platter region is the wrong
// granularity — the blast radius is the set of documents whose record
// graphs touch the page. Those documents are quarantined: every
// operation against them fails fast with ErrQuarantined, while every
// other document keeps serving reads and writes.
//
// Quarantine is deliberately in-memory only. Persisting it would mean
// writing to a store already known damaged; instead a reopen starts
// clean and the next scrub re-establishes the set (the corruption, if
// still there, is found again). Unquarantine exists for the repair
// path: a document whose pages were all reconstructed comes back
// without a restart.

import (
	"errors"
	"fmt"
	"maps"

	"natix/internal/noderep"
	"natix/internal/pagedev"
	"natix/internal/records"
)

// ErrQuarantined reports an operation against a quarantined document.
// The error string carries the document name and the reason recorded
// at quarantine time.
var ErrQuarantined = errors.New("docstore: document quarantined")

// Quarantine marks name as damaged: subsequent operations against it
// fail with ErrQuarantined until Unquarantine or reopen.
func (s *Store) Quarantine(name, reason string) {
	s.editQuarantine(func(q map[string]string) { q[name] = reason })
}

// Unquarantine lifts the quarantine from name (a no-op if it was not
// quarantined). The repair path calls it after reconstructing every
// damaged page a document owns.
func (s *Store) Unquarantine(name string) {
	s.editQuarantine(func(q map[string]string) { delete(q, name) })
}

// editQuarantine publishes a copy of the quarantine set that edit
// changed; readers keep the set they loaded.
func (s *Store) editQuarantine(edit func(map[string]string)) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	q := s.QuarantinedDocs()
	edit(q)
	s.quarantined.Store(&q)
}

// quarantineSet returns the current quarantine set, which nobody writes.
func (s *Store) quarantineSet() map[string]string {
	if q := s.quarantined.Load(); q != nil {
		return *q
	}
	return nil
}

// Quarantined returns the reason name is quarantined, if it is.
func (s *Store) Quarantined(name string) (string, bool) {
	reason, ok := s.quarantineSet()[name]
	return reason, ok
}

// QuarantinedDocs returns a copy of the quarantine set.
func (s *Store) QuarantinedDocs() map[string]string {
	q := s.quarantineSet()
	out := make(map[string]string, len(q))
	maps.Copy(out, q)
	return out
}

// ExclusiveMaintenance runs fn holding the store-wide writer mutex,
// excluding every mutator (all of which take wmu) without blocking
// readers. The integrity scrubber runs inside it so no page it
// examines has an update in flight; unlike Mutate it brackets no WAL
// operation — maintenance must not write through the log.
func (s *Store) ExclusiveMaintenance(fn func() error) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return fn()
}

// checkQuarantine is the fail-fast gate every document operation passes
// through before touching storage.
func (s *Store) checkQuarantine(name string) error {
	reason, ok := s.Quarantined(name)
	if !ok {
		return nil
	}
	return fmt.Errorf("%w: %q (%s)", ErrQuarantined, name, reason)
}

// PageOwners returns every data page the named document's on-disk
// representation touches: its record graph (tree mode) or blob chain
// (flat mode), overflow-literal blobs, and its path-index blobs. A page
// that cannot be walked past (a corrupt record mid-graph, or a record
// graph that reaches a record twice) ends the walk early: the pages collected so far are returned together with the
// error, so the scrubber can still attribute the intact prefix — and
// the error itself tells it the document is implicated in whatever page
// broke the walk.
//
// Callers must hold at least the document's read lock (the scrubber
// holds wmu, which excludes all mutators).
func (s *Store) PageOwners(name string) ([]pagedev.PageNo, error) {
	info, ok := s.lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	seen := make(map[pagedev.PageNo]bool)
	var pages []pagedev.PageNo
	add := func(ps ...pagedev.PageNo) {
		for _, p := range ps {
			if !seen[p] {
				seen[p] = true
				pages = append(pages, p)
			}
		}
	}

	var firstErr error
	if info.Mode == ModeFlat {
		ps, err := s.blobs.Pages(info.Root)
		add(ps...)
		firstErr = err
	} else {
		// A record's pages: the one its RID names and, for a forwarded
		// record, the one holding its body. A record is counted when the
		// proxy to it is seen, so one that cannot be read still is.
		owns := func(rid records.RID) {
			add(rid.Page)
			if p, err := s.trees.Records().PageOf(rid); err == nil {
				add(p)
			}
		}
		owns(info.Root)
		var blobErr error
		firstErr = s.trees.OpenTree(info.Root).WalkRecords(func(_ records.RID, rec *noderep.Record) error {
			rec.Root.Walk(func(n *noderep.Node) bool {
				switch {
				case n.Kind == noderep.KindProxy:
					owns(n.Target)
				case n.Kind == noderep.KindLiteral && n.LitType == noderep.LitLongString:
					if id, err := n.BlobID(); err == nil {
						ps, err := s.blobs.Pages(id)
						add(ps...)
						if err != nil && blobErr == nil {
							blobErr = err
						}
					}
				}
				return true
			})
			return nil
		})
		if firstErr == nil {
			firstErr = blobErr
		}
	}

	// Path-index blobs belong to the document too: a corrupt posting
	// page quarantines the document it indexes (a reindex could instead
	// rebuild it — that is the scrubber's call, not ours).
	if s.pindex != nil {
		if rids, err := s.pindex.BlobRIDs(name); err == nil {
			for _, rid := range rids {
				ps, err := s.blobs.Pages(rid)
				add(ps...)
				if err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	return pages, firstErr
}
