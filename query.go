package natix

import (
	"context"
	"errors"
	"fmt"

	"natix/internal/docstore"
	"natix/internal/pagedev"
)

// Match is one result of a path query. Matches may be consumed after
// Query returns, concurrently with other queries and with the cursor
// that produced them.
//
// A text-only match (an element whose one child is its text, such as a
// LINE) and a literal match take no lock: they lie wholly in the stored
// image of their record, which no edit changes, so each is a snapshot
// that reads the same however long it is kept, also after its node or
// its whole document is deleted.
//
// Any other match reads the records below its own as they are when it is
// read out. Text and Markup take the matched document's read lock per
// call (matches pulled from a live Cursor reuse the cursor's lock
// instead), and once an edit has rewritten or deleted the match's own
// record they fail with ErrStaleMatch.
//
// The string Text returns for a text-only or literal match is a slice of
// its record's image, not a copy: keeping it keeps that image (up to a
// page) in memory. To keep a few strings out of many records, keep
// strings.Clone of them.
type Match struct {
	res docstore.Result
}

// Text returns the concatenated character data of the matched subtree.
func (m Match) Text() (string, error) {
	s, err := m.res.Text()
	if err != nil {
		err = closedErr(err)
	}
	return s, err
}

// Markup returns the XML serialization of the matched subtree.
func (m Match) Markup() (string, error) {
	s, err := m.res.Markup()
	if err != nil {
		err = closedErr(err)
	}
	return s, err
}

// closedErr makes the error of a read-out that ran into the closed device
// an ErrClosed: a Match carries no handle on its DB to ask beforehand, and
// nothing but DB.Close closes the device, so the failure itself says it.
func closedErr(err error) error {
	if errors.Is(err, pagedev.ErrClosed) {
		return fmt.Errorf("%w: %w", ErrClosed, err)
	}
	return err
}

// Query evaluates a path expression against the named document and
// returns the matches in document order. It is QueryContext under
// context.Background.
//
// The query language is the fragment used in the paper's evaluation:
// absolute child steps (/PLAY/ACT), descendant steps (//SPEAKER), name
// tests including * for any element and #text for text nodes, and
// 1-based positional predicates (ACT[3]). Examples, from the paper:
//
//	/PLAY/ACT[3]/SCENE[2]//SPEAKER    (query 1)
//	//SCENE/SPEECH[1]                 (query 2)
//	/PLAY/ACT[1]/SCENE[1]/SPEECH[1]   (query 3)
func (db *DB) Query(name, query string) ([]Match, error) {
	return db.QueryContext(context.Background(), name, query)
}

// QueryContext is Query honoring a context: cancellation is checked at
// page-fetch granularity inside the evaluation, so a runaway scan stops
// promptly. For results consumed incrementally — first match, top-k,
// pagination — prefer QueryIter, which does not materialize the result
// set at all.
func (db *DB) QueryContext(ctx context.Context, name, query string) ([]Match, error) {
	p, err := db.Prepare(query)
	if err != nil {
		return nil, err
	}
	return p.Query(ctx, name)
}

// QueryCount returns the number of matches without materializing them.
// It is QueryCountContext under context.Background.
func (db *DB) QueryCount(name, query string) (int, error) {
	return db.QueryCountContext(context.Background(), name, query)
}

// QueryCountContext counts matches without materializing them. On an
// indexed document (Options.PathIndex) the count comes straight from
// the posting lists and never loads the matched records.
func (db *DB) QueryCountContext(ctx context.Context, name, query string) (int, error) {
	p, err := db.Prepare(query)
	if err != nil {
		return 0, err
	}
	return p.Count(ctx, name)
}

// Convert re-stores a document in the other representation: flat
// (byte-stream) or native tree. Content is preserved; the document's
// physical organization changes. It is ConvertContext under
// context.Background.
func (db *DB) Convert(name string, flat bool) error {
	return db.ConvertContext(context.Background(), name, flat)
}

// ConvertContext is Convert honoring a context during the conversion's
// reversible phase (serializing the old representation); once the old
// form is dropped the rebuild runs to completion regardless.
func (db *DB) ConvertContext(ctx context.Context, name string, flat bool) error {
	return db.view(func() error {
		to := docstore.ModeTree
		if flat {
			to = docstore.ModeFlat
		}
		return db.store.ConvertContext(ctx, name, to)
	})
}
