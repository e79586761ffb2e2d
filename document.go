package natix

import (
	"fmt"

	"natix/internal/core"
	"natix/internal/dict"
	"natix/internal/noderep"
)

// Document is an editable handle to a tree-mode document. Node positions
// are addressed by logical paths: a sequence of child indexes from the
// document root (attributes count as leading children, in declaration
// order).
//
// A Document is safe for concurrent use: edits take the same writer and
// per-document locks the DB mutators do, reads take the document's read
// lock. Edits therefore serialize with imports and deletes, and readers
// of other documents are never blocked by them.
type Document struct {
	db   *DB
	name string
	tree *core.Tree
}

// Document returns an editable handle to the named tree-mode document.
func (db *DB) Document(name string) (*Document, error) {
	return viewE(db, func() (*Document, error) {
		tree, err := db.store.Tree(name)
		if err != nil {
			return nil, err
		}
		return &Document{db: db, name: name, tree: tree}, nil
	})
}

// Name returns the document's catalog name.
func (d *Document) Name() string { return d.name }

// mutate runs fn under the lifecycle lock and the store's writer +
// per-document locks, bracketed by the index drop (PrepareMutation)
// and root-RID persistence (FinishBulk) every edit needs.
func (d *Document) mutate(fn func() error) error {
	return d.db.view(func() error {
		return d.db.store.Mutate(d.name, func() error {
			if err := d.db.store.PrepareMutation(d.name); err != nil {
				return err
			}
			if err := fn(); err != nil {
				return err
			}
			return d.db.store.FinishBulk(d.name, d.tree)
		})
	})
}

// view runs fn under the lifecycle lock and the document's read lock.
func (d *Document) view(fn func() error) error {
	return d.db.view(func() error {
		return d.db.store.View(d.name, fn)
	})
}

// InsertElement inserts a new element named name as child idx of the
// node at parentPath (idx == -1 appends).
func (d *Document) InsertElement(parentPath []int, idx int, name string) error {
	// Intern before taking the document lock; InternLabel serializes a
	// dictionary-growing intern against other mutators.
	label, err := viewE(d.db, func() (dict.LabelID, error) {
		return d.db.store.InternLabel(name)
	})
	if err != nil {
		return err
	}
	return d.mutate(func() error {
		return d.tree.InsertChild(core.Path(parentPath), idx, noderep.NewAggregate(label))
	})
}

// InsertText inserts a text node as child idx of the node at parentPath
// (idx == -1 appends).
func (d *Document) InsertText(parentPath []int, idx int, text string) error {
	return d.mutate(func() error {
		return d.tree.InsertChild(core.Path(parentPath), idx, noderep.NewTextLiteral(text))
	})
}

// DeleteNode removes the node at path together with its subtree.
func (d *Document) DeleteNode(path []int) error {
	return d.mutate(func() error {
		return d.tree.Delete(core.Path(path))
	})
}

// NodeCount returns the number of logical nodes in the document.
func (d *Document) NodeCount() (int, error) {
	count := 0
	err := d.view(func() error {
		c, err := d.tree.Cursor()
		if err != nil {
			return err
		}
		return c.WalkPreOrder(func(*core.Cursor) bool {
			count++
			return true
		})
	})
	return count, err
}

// RecordCount returns the number of physical records the document
// occupies — the visible effect of clustering decisions.
func (d *Document) RecordCount() (int, error) {
	count := 0
	err := d.view(func() error {
		var err error
		count, err = d.tree.RecordCount()
		return err
	})
	return count, err
}

// Check verifies the document's physical invariants (record sizes,
// proxy/parent consistency, scaffolding rules). Intended for tests and
// diagnostics.
func (d *Document) Check() error {
	return d.view(func() error {
		return d.tree.CheckInvariants()
	})
}

// Walk visits every logical node of the document in pre-order. For
// elements, name is the tag; for text nodes, name is "" and text holds
// the data. Returning false from fn prunes that node's subtree.
func (d *Document) Walk(fn func(path []int, name, text string) bool) error {
	return d.view(func() error {
		c, err := d.tree.Cursor()
		if err != nil {
			return err
		}
		dictionary := d.db.store.Dict()
		return c.WalkPreOrder(func(c *core.Cursor) bool {
			if c.IsLiteral() {
				ref := c.Ref()
				text, err := ref.StringValue()
				if err != nil {
					text = fmt.Sprintf("<binary literal: %v>", err)
				}
				return fn(c.Path(), "", text)
			}
			name, err := dictionary.Name(c.Label())
			if err != nil {
				name = fmt.Sprintf("<label %d>", c.Label())
			}
			return fn(c.Path(), name, "")
		})
	})
}
