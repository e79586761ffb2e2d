// Package dict maintains the label dictionary: a persistent, bidirectional
// mapping between node labels (element/attribute names, Σ_DTD in the
// paper's logical model, §2.2) and compact 16-bit ids used throughout the
// physical representation ("the tag or attribute name ... is stored in the
// object header as 2 byte offset into a node type table", App. A).
//
// A handful of ids are reserved for labels that are not element names:
// text literals, scaffolding objects and attribute containers.
//
// The read path (Lookup, Name, Len) is lock-free: the mapping lives in an
// immutable snapshot behind an atomic pointer, so query evaluation never
// serializes on the dictionary. Intern copies the snapshot, persists the
// extended dictionary, and publishes the new snapshot atomically; writers
// are serialized by an internal mutex. Labels are few and interning a new
// one is rare (imports of documents with unseen element names), so the
// copy-on-write cost is negligible.
package dict

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"natix/internal/blobstore"
	"natix/internal/records"
	"natix/internal/segment"
)

// LabelID is a compact label identifier.
type LabelID uint16

// Reserved label ids. User labels start at FirstUserID.
const (
	Invalid  LabelID = 0 // never a valid label
	Text     LabelID = 1 // literal text nodes (#text)
	Scaffold LabelID = 2 // scaffolding aggregates/proxies (#scaffold)

	FirstUserID LabelID = 3
)

// reservedNames maps the reserved ids to their display names.
var reservedNames = []string{"", "#text", "#scaffold"}

// AttrPrefix marks attribute labels: attribute a of an element is stored
// as a child aggregate labelled "@a" holding a string literal.
const AttrPrefix = "@"

// Errors.
var (
	ErrUnknownID = errors.New("dict: unknown label id")
	ErrFull      = errors.New("dict: dictionary record full")
	ErrCorrupt   = errors.New("dict: corrupt dictionary record")
)

// dictState is one immutable snapshot of the mapping. Never mutate a
// published snapshot: Intern builds a fresh byName map (the names and
// attr slices are append-only, so older snapshots index safely into
// their prefix).
type dictState struct {
	byName map[string]LabelID
	names  []string
	attr   []bool // per id: the name is an attribute's (AttrPrefix)
}

// add appends name under the next id.
func (st *dictState) add(name string) {
	st.names = append(st.names, name)
	st.attr = append(st.attr, strings.HasPrefix(name, AttrPrefix))
}

// extend returns a copy of st to add names to, leaving st as it is.
func (st *dictState) extend(more int) *dictState {
	next := &dictState{
		byName: make(map[string]LabelID, len(st.byName)+more),
		names:  st.names[:len(st.names):len(st.names)],
		attr:   st.attr[:len(st.attr):len(st.attr)],
	}
	for n, i := range st.byName {
		next.byName[n] = i
	}
	return next
}

// Dict is the persistent label dictionary. It is serialized as a blob
// whose id is registered in the segment header's RootDict slot. Reads
// are lock-free; Intern serializes internally, so the whole type is
// safe for concurrent use.
type Dict struct {
	blobs *blobstore.Store
	seg   *segment.Segment

	mu     sync.Mutex // serializes Intern/save; guards blobID
	blobID blobstore.ID
	state  atomic.Pointer[dictState]
}

// Create initializes an empty dictionary, persists it, and registers it
// in the segment header.
func Create(rm *records.Manager) (*Dict, error) {
	d := &Dict{blobs: blobstore.New(rm), seg: rm.Segment()}
	st := &dictState{byName: make(map[string]LabelID)}
	for id, n := range reservedNames {
		st.add(n)
		if id > 0 {
			st.byName[n] = LabelID(id)
		}
	}
	d.state.Store(st)
	id, err := d.blobs.Write(d.encode(st), 0)
	if err != nil {
		return nil, fmt.Errorf("dict: persist: %w", err)
	}
	d.blobID = id
	if err := d.registerRoot(); err != nil {
		return nil, err
	}
	return d, nil
}

// Open loads the dictionary registered in the segment header.
func Open(rm *records.Manager) (*Dict, error) {
	seg := rm.Segment()
	raw, err := seg.RootRID(segment.RootDict)
	if err != nil {
		return nil, err
	}
	if raw == 0 {
		return nil, errors.New("dict: no dictionary in segment")
	}
	var enc [records.RIDSize]byte
	binary.LittleEndian.PutUint64(enc[:], raw)
	d := &Dict{blobs: blobstore.New(rm), seg: seg, blobID: records.DecodeRID(enc[:])}
	body, err := d.blobs.Read(d.blobID)
	if err != nil {
		return nil, fmt.Errorf("dict: load: %w", err)
	}
	st, err := decode(body)
	if err != nil {
		return nil, err
	}
	d.state.Store(st)
	return d, nil
}

// Reload discards the in-memory snapshot and re-reads the dictionary
// from the segment. The document store calls it after a log-driven
// rollback restored pages under the in-memory state. Mutator context.
func (d *Dict) Reload() error {
	raw, err := d.seg.RootRID(segment.RootDict)
	if err != nil {
		return err
	}
	if raw == 0 {
		return errors.New("dict: no dictionary in segment")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var enc [records.RIDSize]byte
	binary.LittleEndian.PutUint64(enc[:], raw)
	d.blobID = records.DecodeRID(enc[:])
	body, err := d.blobs.Read(d.blobID)
	if err != nil {
		return fmt.Errorf("dict: reload: %w", err)
	}
	st, err := decode(body)
	if err != nil {
		return err
	}
	d.state.Store(st)
	return nil
}

// registerRoot stores the current blob id in the segment header.
func (d *Dict) registerRoot() error {
	var enc [records.RIDSize]byte
	d.blobID.Put(enc[:])
	return d.seg.SetRootRID(segment.RootDict, binary.LittleEndian.Uint64(enc[:]))
}

// encode serializes a snapshot: count, then (len, bytes) per name.
func (d *Dict) encode(st *dictState) []byte {
	out := make([]byte, 2, 64)
	binary.LittleEndian.PutUint16(out, uint16(len(st.names)))
	var l [2]byte
	for _, n := range st.names {
		binary.LittleEndian.PutUint16(l[:], uint16(len(n)))
		out = append(out, l[:]...)
		out = append(out, n...)
	}
	// Records have a minimum size; the empty dictionary is padded by the
	// trailing count of zero-length entries naturally exceeding it.
	for len(out) < records.MinRecordSize {
		out = append(out, 0)
	}
	return out
}

// decode parses what encode writes, and only that: every name of a user
// label non-empty (Intern refuses the empty one) and no name twice, the
// reserved labels at their ids, and behind the entries nothing but
// encode's zero padding. Anything else is ErrCorrupt — a dictionary that
// took a second "LINE" would answer Lookup with the later id and miss
// every node stored under the first. The count is held to what the bytes
// can hold, two per entry, before anything is allocated.
func decode(b []byte) (*dictState, error) {
	if len(b) < 2 {
		return nil, ErrCorrupt
	}
	count := int(binary.LittleEndian.Uint16(b))
	if count < len(reservedNames) || count > (len(b)-2)/2 {
		return nil, fmt.Errorf("%w: %d entries in %d bytes", ErrCorrupt, count, len(b))
	}
	pos := 2
	st := &dictState{byName: make(map[string]LabelID, count), names: make([]string, 0, count), attr: make([]bool, 0, count)}
	for i := 0; i < count; i++ {
		if pos+2 > len(b) {
			return nil, fmt.Errorf("%w: truncated at entry %d", ErrCorrupt, i)
		}
		n := int(binary.LittleEndian.Uint16(b[pos:]))
		pos += 2
		if pos+n > len(b) {
			return nil, fmt.Errorf("%w: truncated name at entry %d", ErrCorrupt, i)
		}
		name := string(b[pos : pos+n])
		pos += n
		switch _, dup := st.byName[name]; {
		case i < len(reservedNames) && name != reservedNames[i]:
			return nil, fmt.Errorf("%w: reserved id %d is %q, want %q", ErrCorrupt, i, name, reservedNames[i])
		case i > 0 && name == "":
			return nil, fmt.Errorf("%w: empty name at entry %d", ErrCorrupt, i)
		case dup:
			return nil, fmt.Errorf("%w: %q named twice, the second time at entry %d", ErrCorrupt, name, i)
		}
		st.add(name)
		if i > 0 {
			st.byName[name] = LabelID(i)
		}
	}
	for _, c := range b[pos:] {
		if c != 0 || len(b) > max(pos, records.MinRecordSize) {
			return nil, fmt.Errorf("%w: %d bytes behind the last entry", ErrCorrupt, len(b)-pos)
		}
	}
	return st, nil
}

// save persists a snapshot. Blob ids change when the chunk count
// changes, so the header root is re-registered after every save.
// Caller holds d.mu.
func (d *Dict) save(st *dictState) error {
	id, err := d.blobs.Overwrite(d.blobID, d.encode(st))
	if err != nil {
		return err
	}
	d.blobID = id
	return d.registerRoot()
}

// Intern returns the id for name, adding and persisting it if new.
func (d *Dict) Intern(name string) (LabelID, error) {
	if name == "" {
		return Invalid, errors.New("dict: empty label")
	}
	if id, ok := d.state.Load().byName[name]; ok {
		return id, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.state.Load()
	if id, ok := cur.byName[name]; ok { // raced with another Intern
		return id, nil
	}
	if len(cur.names) > 0xFFFF {
		return Invalid, fmt.Errorf("%w: 16-bit id space exhausted", ErrFull)
	}
	id := LabelID(len(cur.names))
	next := cur.extend(1)
	next.add(name)
	next.byName[name] = id
	// Persist before publishing, so in-memory state never runs ahead of
	// disk when the save fails.
	if err := d.save(next); err != nil {
		return Invalid, err
	}
	d.state.Store(next)
	return id, nil
}

// Batch collects label interns and persists them with a single save.
// Intern alone re-encodes and rewrites the whole dictionary blob for
// every new label — O(labels²) bytes over a load that discovers its
// vocabulary as it parses. A batch assigns final ids immediately (so
// callers can embed them in records they are writing) but defers the
// encode/save/publish to one Commit.
//
// Ids handed out by an uncommitted batch are provisional: nothing is
// persisted or published until Commit, so a failed load that used them
// leaves no trace. Writers must be externally serialized against all
// other Intern/Commit callers (the document store's writer mutex does
// this); Commit fails, changing nothing, if the dictionary moved
// underneath the batch in a way that invalidates a handed-out id.
type Batch struct {
	d     *Dict
	base  *dictState
	names []string // new labels, in id order
	ids   map[string]LabelID
}

// NewBatch opens a batch against the current dictionary state.
func (d *Dict) NewBatch() *Batch {
	return &Batch{d: d, base: d.state.Load(), ids: make(map[string]LabelID)}
}

// Intern returns the id for name, assigning the next free id if the
// label is new to both the dictionary and the batch.
func (b *Batch) Intern(name string) (LabelID, error) {
	if name == "" {
		return Invalid, errors.New("dict: empty label")
	}
	if id, ok := b.base.byName[name]; ok {
		return id, nil
	}
	if id, ok := b.ids[name]; ok {
		return id, nil
	}
	next := len(b.base.names) + len(b.names)
	if next > 0xFFFF {
		return Invalid, fmt.Errorf("%w: 16-bit id space exhausted", ErrFull)
	}
	id := LabelID(next)
	b.names = append(b.names, name)
	b.ids[name] = id
	return id, nil
}

// Len returns the number of labels the batch would add.
func (b *Batch) Len() int { return len(b.names) }

// Commit persists and publishes the batch's labels with one save. A
// batch that added nothing is a no-op. After Commit the batch continues
// to work against the updated state.
func (b *Batch) Commit() error {
	if len(b.names) == 0 {
		return nil
	}
	d := b.d
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.state.Load()
	// Re-derive every id under the current state: normally cur == base
	// and ids match trivially, but if another writer interned between
	// NewBatch and Commit (a serialization bug upstream) the handed-out
	// ids may be stale — fail closed rather than persist a lie.
	next := cur.extend(len(b.names))
	for _, name := range b.names {
		want := b.ids[name]
		if id, ok := next.byName[name]; ok {
			if id != want {
				return fmt.Errorf("dict: concurrent intern invalidated batch id for %q", name)
			}
			continue
		}
		if LabelID(len(next.names)) != want {
			return fmt.Errorf("dict: concurrent intern invalidated batch id for %q", name)
		}
		next.add(name)
		next.byName[name] = want
	}
	if err := d.save(next); err != nil {
		return err
	}
	d.state.Store(next)
	b.base = next
	b.names = nil
	b.ids = make(map[string]LabelID)
	return nil
}

// InternBatch interns several labels with a single dictionary save,
// returning ids parallel to names.
func (d *Dict) InternBatch(names []string) ([]LabelID, error) {
	b := d.NewBatch()
	out := make([]LabelID, len(names))
	for i, n := range names {
		id, err := b.Intern(n)
		if err != nil {
			return nil, err
		}
		out[i] = id
	}
	if err := b.Commit(); err != nil {
		return nil, err
	}
	return out, nil
}

// Lookup returns the id for name without adding it.
func (d *Dict) Lookup(name string) (LabelID, bool) {
	id, ok := d.state.Load().byName[name]
	return id, ok
}

// Name returns the label text for id.
func (d *Dict) Name(id LabelID) (string, error) {
	st := d.state.Load()
	if int(id) >= len(st.names) || id == Invalid {
		return "", fmt.Errorf("%w: %d", ErrUnknownID, id)
	}
	return st.names[id], nil
}

// IsAttr reports whether id labels an attribute: its name starts with
// AttrPrefix. The bit is set as a name is interned or loaded, so the
// test costs no string compare.
func (d *Dict) IsAttr(id LabelID) (bool, error) {
	st := d.state.Load()
	if int(id) >= len(st.attr) || id == Invalid {
		return false, fmt.Errorf("%w: %d", ErrUnknownID, id)
	}
	return st.attr[id], nil
}

// Len returns the number of labels including the reserved ones.
func (d *Dict) Len() int { return len(d.state.Load().names) }
