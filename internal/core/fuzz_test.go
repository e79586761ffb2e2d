package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"natix/internal/buffer"
	"natix/internal/corpus"
	"natix/internal/dict"
	"natix/internal/noderep"
	"natix/internal/pagedev"
	"natix/internal/records"
	"natix/internal/segment"
)

// FuzzWritePath: the writer never trusts a page. It reads the records it
// passes where they lie, with no Decode — RootSpan, ChildSpan, Skip, the
// proxies' counts, the parent RIDs it patches, the splice — so a record
// whose bytes are wrong must not steer it into a panic, a loop or a
// write outside what it reads. Each input mutates one stored record of a
// small store (writePathBase) — bytes patched through the buffer pool,
// whose checksum the page write reseals — in twin copies and runs a
// seeded script of node edits on both: the write path on one, the
// decoded reference (refInsertChild, refDelete, refSpliceInFrame) on the
// other. When the mutated store still passes the invariant check —
// Decode accepts every image, every count matches its target — each edit
// gives the reference's answer: the same error, or the same pages, byte
// for byte. Otherwise the write path, which validates what it reads and
// not the rest of a record, gives ErrCorruptRecord, an error of the
// edit's own (ErrBadPath, ErrNotAggregate: the reference, which decodes
// the whole record, may have found the damage first), or a success; the
// script stops at the first edit the two stores no longer agree on, or
// that fails. The update brackets run in checking mode (a test binary),
// so a write outside the windows an edit declares fails it. The seeds
// set up the three faults a review of the in-place readers found — a
// text's bytes read as child headers (an edit below a text, in every odd
// script), a proxy crossing the end of the aggregate holding it, a
// parent RID read behind a type-table count the image does not have —
// and a proxy counting one child too many.
func FuzzWritePath(f *testing.F) {
	base := writePathBase(f)
	for script := int64(1); script <= 4; script++ {
		f.Add(uint8(0), uint16(0), []byte(nil), script)
	}
	for _, s := range base.seeds {
		f.Add(s.rec, s.off, s.patch, int64(1))
		f.Add(s.rec, s.off, s.patch, int64(2))
	}
	f.Fuzz(func(t *testing.T, rec uint8, off uint16, patch []byte, script int64) {
		prod, ref := base.open(t), base.open(t)
		if len(patch) > 0 {
			rid := base.rids[int(rec)%len(base.rids)]
			size, err := prod.Store.rm.Size(rid)
			if err != nil {
				t.Fatal(err)
			}
			o := int(off) % size
			patch = patch[:min(len(patch), size-o)]
			for _, s := range []*fuzzStore{prod, ref} {
				if err := s.rm.Patch(rid, o, patch); err != nil {
					t.Fatal(err)
				}
			}
		}
		valid := ref.tree.CheckInvariants() == nil
		model := base.model.clone()
		rng := rand.New(rand.NewSource(script))
		for i := 0; i < 6; i++ {
			e := pickEdit(rng, model, i == 0 && script%2 == 1)
			errR := e.run(ref.tree, true)
			errP := e.run(prod.tree, false)
			same := (errP == nil) == (errR == nil) && (errP == nil || errP.Error() == errR.Error())
			if !valid {
				if errP != nil && !same && !errors.Is(errP, noderep.ErrCorruptRecord) && !errors.Is(errP, ErrBadPath) && !errors.Is(errP, ErrNotAggregate) {
					t.Fatalf("edit %d, %s: error %v, reference %v, on a damaged store", i, e, errP, errR)
				}
				if errP != nil || errR != nil || !prod.samePages(t, ref) {
					return // the damage set the two apart: nothing left to compare
				}
				e.apply(model)
				continue
			}
			if !same {
				t.Fatalf("edit %d, %s: error %v, reference %v", i, e, errP, errR)
			}
			if errP != nil {
				continue // refused by both, nothing written
			}
			if !prod.samePages(t, ref) {
				t.Fatalf("edit %d, %s: the pages differ from the reference's", i, e)
			}
			e.apply(model)
		}
	})
}

// fuzzStore is one copy of the base store.
type fuzzStore struct {
	*Store
	pool *buffer.Pool
	tree *Tree
}

// samePages reports whether s and other hold the same pages, byte for
// byte.
func (s *fuzzStore) samePages(t *testing.T, other *fuzzStore) bool {
	n := s.pool.Device().NumPages()
	if other.pool.Device().NumPages() != n {
		return false
	}
	for p := pagedev.PageNo(0); p < n; p++ {
		a, err := s.pool.Get(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := other.pool.Get(p)
		if err != nil {
			a.Release()
			t.Fatal(err)
		}
		same := bytes.Equal(a.Data(), b.Data())
		a.Release()
		b.Release()
		if !same {
			return false
		}
	}
	return true
}

// fuzzBase is the store FuzzWritePath mutates: its pages, its tree's
// root record, its records in WalkRecords order, the model of its
// document and the mutations the seeds make.
type fuzzBase struct {
	pages [][]byte
	root  records.RID
	rids  []records.RID
	model *refNode
	seeds []fuzzSeed
}

// fuzzSeed is one mutation: bytes patched at an offset of a record.
type fuzzSeed struct {
	rec   uint8
	off   uint16
	patch []byte
}

var (
	fuzzBaseOnce sync.Once
	fuzzBaseVal  *fuzzBase
)

const fuzzPageSize = 512

func fuzzConfig() Config { return Config{Matrix: mixedMatrix(), CacheRecords: 64} }

// writePathBase builds the small corpus play node by node on 512-byte
// pages under mixedMatrix — scenes in records of their own, speeches
// clustered with their scenes, everything else split where the pages
// say — so that it holds proxies to facade and to scaffolding records,
// partition records and text-only elements, and finds the seeds'
// mutations in it.
func writePathBase(tb testing.TB) *fuzzBase {
	fuzzBaseOnce.Do(func() {
		dev, err := pagedev.NewMem(fuzzPageSize)
		if err != nil {
			tb.Fatal(err)
		}
		pool, err := buffer.New(dev, 512)
		if err != nil {
			tb.Fatal(err)
		}
		seg, err := segment.Create(pool)
		if err != nil {
			tb.Fatal(err)
		}
		s := New(records.New(seg), fuzzConfig())
		b := &fuzzBase{model: playRef(corpus.GeneratePlay(corpus.SmallSpec(1), 0))}
		tr, err := s.CreateTree(b.model.label)
		if err != nil {
			tb.Fatal(err)
		}
		var grow func(path Path, n *refNode)
		grow = func(path Path, n *refNode) {
			for i, c := range n.children {
				if err := tr.InsertChild(path, i, modelNode(c)); err != nil {
					tb.Fatalf("insert at %s[%d]: %v", path, i, err)
				}
				grow(append(path.Clone(), i), c)
			}
		}
		grow(Path{}, b.model)
		if err := tr.CheckInvariants(); err != nil {
			tb.Fatal(err)
		}
		b.root = tr.RootRID()
		if err := tr.WalkRecords(func(rid records.RID, rec *noderep.Record) error {
			b.rids = append(b.rids, rid)
			return nil
		}); err != nil {
			tb.Fatal(err)
		}
		if err := pool.FlushAll(); err != nil {
			tb.Fatal(err)
		}
		for p := pagedev.PageNo(0); p < dev.NumPages(); p++ {
			page := make([]byte, fuzzPageSize)
			if err := dev.Read(p, page); err != nil {
				tb.Fatal(err)
			}
			b.pages = append(b.pages, page)
		}
		b.seeds = b.findSeeds(tb, s)
		fuzzBaseVal = b
	})
	if fuzzBaseVal == nil {
		tb.Fatal("the write path's base store was not built")
	}
	return fuzzBaseVal
}

// findSeeds finds the seeds' mutations in the base store s: a proxy that
// is the last child of an embedded aggregate, whose size is cut by one so
// that the proxy crosses its end; the type-table count of a record that
// is not the root, raised so that its parent RID would lie past its end;
// a proxy to a scaffolding record, counting one more.
func (b *fuzzBase) findSeeds(tb testing.TB, s *Store) []fuzzSeed {
	var seeds []fuzzSeed
	var crossing, counted bool
	for i, rid := range b.rids {
		img, err := s.rm.Read(rid)
		if err != nil {
			tb.Fatal(err)
		}
		if i > 0 && i < 3 {
			seeds = append(seeds, fuzzSeed{rec: uint8(i), off: 2, patch: []byte{0xF0, 0}})
		}
		var root noderep.Span
		if !noderep.RootSpan(img, &root) {
			tb.Fatalf("record %s does not read", rid)
		}
		var walk func(agg noderep.Span, embedded bool)
		walk = func(agg noderep.Span, embedded bool) {
			var c noderep.Span
			for p := agg.Start; p < agg.End; p = c.End {
				if !noderep.ChildSpan(img, p, &agg, &c) {
					tb.Fatalf("record %s does not read", rid)
				}
				switch {
				case c.Children():
					walk(c, true)
				case c.Kind != noderep.KindProxy:
				case embedded && c.End == agg.End && !crossing:
					crossing = true
					size := binary.LittleEndian.Uint16(img[agg.Start-2:])
					seeds = append(seeds, fuzzSeed{rec: uint8(i), off: uint16(agg.Start - 2), patch: binary.LittleEndian.AppendUint16(nil, size-1)})
				case !counted:
					target, err := s.LoadRecordForInspection(c.Target(img))
					if err != nil {
						tb.Fatal(err)
					}
					if target.Root.Scaffold {
						counted = true
						seeds = append(seeds, fuzzSeed{rec: uint8(i), off: uint16(noderep.CountOffset(c.End)),
							patch: binary.LittleEndian.AppendUint32(nil, uint32(noderep.ProxyCount(img, c.End)+1))})
					}
				}
			}
		}
		if root.Children() {
			walk(root, false)
		}
	}
	if !crossing || !counted {
		tb.Fatalf("the base store holds no proxy for a seed (crossing %v, counted %v)", crossing, counted)
	}
	return seeds
}

// open returns a store over a copy of the base's pages.
func (b *fuzzBase) open(tb testing.TB) *fuzzStore {
	dev, err := pagedev.NewMem(fuzzPageSize)
	if err != nil {
		tb.Fatal(err)
	}
	if err := dev.Grow(pagedev.PageNo(len(b.pages))); err != nil {
		tb.Fatal(err)
	}
	for p, page := range b.pages {
		if err := dev.Write(pagedev.PageNo(p), page); err != nil {
			tb.Fatal(err)
		}
	}
	pool, err := buffer.New(dev, 512)
	if err != nil {
		tb.Fatal(err)
	}
	seg, err := segment.Open(pool)
	if err != nil {
		tb.Fatal(err)
	}
	s := New(records.New(seg), fuzzConfig())
	return &fuzzStore{Store: s, pool: pool, tree: s.OpenTree(b.root)}
}

// fuzzEdit is one node edit of a FuzzWritePath script.
type fuzzEdit struct {
	del  bool
	path Path // the node deleted, or the parent inserted under
	idx  int
	node *refNode
}

func (e fuzzEdit) String() string {
	if e.del {
		return fmt.Sprintf("delete %s", e.path)
	}
	return fmt.Sprintf("insert at %s[%d]", e.path, e.idx)
}

// pickEdit picks an edit of model: an insert of an element or a text
// anywhere, a delete of any node, or, when below is set, a delete below a
// text, which both paths refuse.
func pickEdit(rng *rand.Rand, model *refNode, below bool) fuzzEdit {
	var paths []Path
	if below {
		modelPaths(model, Path{}, false, &paths)
		paths = slices.DeleteFunc(paths, func(p Path) bool { return !modelAt(model, p).isText })
		if len(paths) > 0 {
			return fuzzEdit{del: true, path: append(paths[rng.Intn(len(paths))].Clone(), 0)}
		}
	}
	if rng.Intn(4) == 0 && len(model.children) > 0 {
		modelPaths(model, Path{}, false, &paths)
		return fuzzEdit{del: true, path: paths[rng.Intn(len(paths))]}
	}
	modelPaths(model, Path{}, true, &paths)
	p := paths[rng.Intn(len(paths))]
	n := &refNode{label: dict.LabelID(3 + rng.Intn(len(corpus.ElementNames)))}
	if rng.Intn(2) == 0 {
		n = &refNode{isText: true, label: dict.Text, text: fmt.Sprintf("edit %d", rng.Intn(1000))}
	}
	return fuzzEdit{path: p, idx: rng.Intn(len(modelAt(model, p).children) + 1), node: n}
}

// run runs the edit on tr, through the decoded reference when ref is set.
func (e fuzzEdit) run(tr *Tree, ref bool) error {
	switch {
	case e.del && ref:
		return refDelete(tr, e.path, refSpliceInFrame)
	case e.del:
		return tr.Delete(e.path)
	case ref:
		return refInsertChild(tr, e.path, e.idx, modelNode(e.node), refSpliceInFrame)
	default:
		return tr.InsertChild(e.path, e.idx, modelNode(e.node))
	}
}

// apply applies the edit to the model.
func (e fuzzEdit) apply(model *refNode) {
	parent := model
	if e.del {
		parent = modelAt(model, e.path[:len(e.path)-1])
		i := e.path[len(e.path)-1]
		parent.children = slices.Delete(parent.children, i, i+1)
		return
	}
	parent = modelAt(model, e.path)
	parent.children = slices.Insert(parent.children, e.idx, e.node)
}
