package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"natix/internal/buffer"
	"natix/internal/corpus"
	"natix/internal/dict"
	"natix/internal/noderep"
	"natix/internal/pagedev"
	"natix/internal/records"
	"natix/internal/segment"
	"natix/internal/wal"
)

// loggedStore is a tree store over an in-memory device with a log
// attached, each mutation one logged operation, as docstore runs them.
type loggedStore struct {
	*Store
	dev  pagedev.Device
	pool *buffer.Pool
	log  *wal.MemStorage
	w    *wal.Writer
}

func newLoggedStore(t *testing.T, pageSize int, cfg Config) *loggedStore {
	t.Helper()
	dev, err := pagedev.NewMem(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.New(dev, 512)
	if err != nil {
		t.Fatal(err)
	}
	ls := &loggedStore{dev: dev, pool: pool, log: wal.NewMemStorage()}
	if ls.w, err = wal.OpenWriter(ls.log, wal.Options{PageSize: pageSize, NoSync: true}); err != nil {
		t.Fatal(err)
	}
	pool.AttachWAL(ls.w)
	ls.op(t, "create", func() error {
		seg, err := segment.Create(pool)
		if err == nil {
			ls.Store = New(records.New(seg), cfg)
		}
		return err
	})
	return ls
}

// op runs fn as one logged operation.
func (ls *loggedStore) op(t *testing.T, kind string, fn func() error) {
	t.Helper()
	if _, err := ls.w.Begin(kind, uint64(ls.dev.NumPages())); err != nil {
		t.Fatal(err)
	}
	if err := fn(); err != nil {
		t.Fatalf("%s: %v", kind, err)
	}
	if err := ls.w.Commit(); err != nil {
		t.Fatal(err)
	}
}

// sameAs fails unless ls and other hold the same pages, byte for byte,
// and the same log.
func (ls *loggedStore) sameAs(t *testing.T, other *loggedStore, what string) {
	t.Helper()
	if a, b := ls.log.Snapshot(), other.log.Snapshot(); !bytes.Equal(a, b) {
		t.Fatalf("%s: the logs differ from byte %d on", what, mismatch(a, b))
	}
	n := ls.dev.NumPages()
	if m := other.dev.NumPages(); m != n {
		t.Fatalf("%s: %d pages, the reference %d", what, n, m)
	}
	for p := pagedev.PageNo(0); uint64(p) < uint64(n); p++ {
		a, err := ls.pool.Get(p)
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
			t.Fatalf("%s: page %d differs from the reference", what, p)
		}
	}
}

// mismatch returns the offset of the first byte a and b differ in.
func mismatch(a, b []byte) int {
	i := 0
	for i < min(len(a), len(b)) && a[i] == b[i] {
		i++
	}
	return i
}

// mixedMatrix clusters speeches with their scenes and speakers and
// stores scenes apart from their acts; everything else is other.
func mixedMatrix() *SplitMatrix {
	m := AllOther()
	m.Set(lScene, lSpeech, PolicyCluster)
	m.Set(lSpeech, lSpeaker, PolicyCluster)
	m.Set(lAct, lScene, PolicyStandalone)
	return m
}

// twinEdits runs edits on twin logged stores — the production path,
// which reads the records it passes where they lie and splices the image
// it changes inside the record's one pinned, latched frame, and the
// decoded reference with the given splice — and after every edit holds
// the two to the same page images and the same log, byte for byte.
type twinEdits struct {
	t      *testing.T
	stores [2]*loggedStore
	trees  [2]*Tree
	splice refSplice
}

func newTwinEdits(t *testing.T, page int, cfg func() Config, root dict.LabelID, splice refSplice) *twinEdits {
	tw := &twinEdits{t: t, splice: splice}
	for i := range tw.stores {
		tw.stores[i] = newLoggedStore(t, page, cfg())
		tw.stores[i].op(t, "create-tree", func() (err error) {
			tw.trees[i], err = tw.stores[i].CreateTree(root)
			return err
		})
	}
	return tw
}

func (tw *twinEdits) edit(kind string, prod, ref func(*Tree) error) {
	tw.t.Helper()
	tw.stores[1].op(tw.t, kind, func() error { return ref(tw.trees[1]) })
	tw.stores[0].op(tw.t, kind, func() error { return prod(tw.trees[0]) })
	tw.stores[0].sameAs(tw.t, tw.stores[1], kind)
}

func (tw *twinEdits) insert(kind string, path Path, idx int, node func() *noderep.Node) {
	tw.t.Helper()
	tw.edit(kind, func(tr *Tree) error { return tr.InsertChild(path, idx, node()) },
		func(tr *Tree) error { return refInsertChild(tr, path, idx, node(), tw.splice) })
}

func (tw *twinEdits) delete(kind string, path Path) {
	tw.t.Helper()
	tw.edit(kind, func(tr *Tree) error { return tr.Delete(path) },
		func(tr *Tree) error { return refDelete(tr, path, tw.splice) })
}

// refuse runs an edit both paths must refuse on the twin stores and holds
// them to the same error, word for word, and the same stores.
func (tw *twinEdits) refuse(kind string, prod, ref func(*Tree) error) {
	tw.t.Helper()
	var errs [2]error
	for i, fn := range []func(*Tree) error{prod, ref} {
		tw.stores[i].op(tw.t, kind, func() error { errs[i] = fn(tw.trees[i]); return nil })
	}
	if errs[0] == nil || errs[1] == nil || errs[0].Error() != errs[1].Error() {
		tw.t.Fatalf("%s: error %q, reference %q", kind, errs[0], errs[1])
	}
	tw.stores[0].sameAs(tw.t, tw.stores[1], kind)
}

// done checks the production tree and that both stores took the same
// paths: the same records spliced, rewritten and split.
func (tw *twinEdits) done() Stats {
	tw.t.Helper()
	if err := tw.trees[0].CheckInvariants(); err != nil {
		tw.t.Fatal(err)
	}
	ps, rs := tw.stores[0].Stats(), tw.stores[1].Stats()
	if ps.RecordsSpliced == 0 || ps.RecordsSpliced != rs.RecordsSpliced || ps.RecordsRewritten != rs.RecordsRewritten || ps.Splits != rs.Splits {
		tw.t.Fatalf("counters %+v, reference %+v", ps, rs)
	}
	return ps
}

// TestSpliceInFrameMatchesReadIntoSplice builds a corpus play node by
// node in binary-tree BFS order (corpus.BinaryBFSOps), deleting and
// re-inserting a seeded few of the nodes it adds, on twin logged stores:
// the production path, which computes and applies each node edit inside
// the record's one pinned, latched frame (records.Manager.Edit), and the
// decoded reference with the splice the in-frame one replaced, which read
// the image out with ReadInto and handed the spliced copy to
// records.Manager.Edit (refSpliceRecord). Under the four split-matrix settings and pages of
// 512 and 8192 bytes, after every edit the two stores hold the same page
// images and the same log, byte for byte.
func TestSpliceInFrameMatchesReadIntoSplice(t *testing.T) {
	play := corpus.GeneratePlay(corpus.SmallSpec(1), 0)
	ops := corpus.BinaryBFSOps(play)
	labels := map[string]dict.LabelID{}
	for i, name := range corpus.ElementNames {
		labels[name] = dict.LabelID(3 + i)
	}
	for _, page := range []int{512, 8192} {
		for _, m := range []struct {
			name   string
			matrix func() *SplitMatrix
		}{
			{"other", AllOther},
			{"cluster", func() *SplitMatrix { return NewSplitMatrix(PolicyCluster) }},
			{"standalone", AllStandalone},
			{"mixed", mixedMatrix},
		} {
			t.Run(fmt.Sprintf("%s-%d", m.name, page), func(t *testing.T) {
				cfg := func() Config { return Config{Matrix: m.matrix(), CacheRecords: 64} }
				tw := newTwinEdits(t, page, cfg, labels[play.Name], refSpliceRecord)
				rng := rand.New(rand.NewSource(int64(page)))
				deletes := 0
				for i, op := range ops {
					node := func() *noderep.Node {
						if op.IsText {
							return noderep.NewTextLiteral(op.Text)
						}
						return noderep.NewAggregate(labels[op.Name])
					}
					tw.insert(fmt.Sprintf("insert %d", i), Path(op.ParentPath), op.Index, node)
					if rng.Intn(100) < 3 {
						tw.delete(fmt.Sprintf("delete %d", i), append(Path(op.ParentPath).Clone(), op.Index))
						tw.insert(fmt.Sprintf("re-insert %d", i), Path(op.ParentPath), op.Index, node)
						deletes++
					}
				}
				ps := tw.done()
				t.Logf("%d inserts, %d deletes: %d spliced, %d rewritten, %d splits", len(ops), deletes, ps.RecordsSpliced, ps.RecordsRewritten, ps.Splits)
			})
		}
	}
}

// TestImageWritePathMatchesDecoded runs a seeded script of inserts and
// deletes anywhere in the tree — elements and texts, subtrees with the
// records below them deleted whole — on twin logged stores: the
// production path, which reads record images in place and decodes a
// record only when the image cannot be spliced, and the decoded path it
// replaced, with the same in-frame splice (refSpliceInFrame). Under both
// split-matrix extremes, at 512- and 8192-byte pages, with and without
// merging on delete, after every operation the two stores hold the same
// page images and the same log, byte for byte. Between the operations,
// edits below a text — a delete of its child, an insert under it — are
// refused by both with the same error.
func TestImageWritePathMatchesDecoded(t *testing.T) {
	labels := []dict.LabelID{lPlay, lAct, lScene, lSpeech, lSpeaker, lLine}
	for _, page := range []int{512, 8192} {
		for _, m := range []struct {
			name   string
			matrix func() *SplitMatrix
		}{{"other", AllOther}, {"standalone", AllStandalone}} {
			for _, merge := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s-%d-merge=%v", m.name, page, merge), func(t *testing.T) {
					cfg := func() Config { return Config{Matrix: m.matrix(), CacheRecords: 64, MergeOnDelete: merge} }
					tw := newTwinEdits(t, page, cfg, lPlay, refSpliceInFrame)
					rng := rand.New(rand.NewSource(int64(page) + 7))
					bad := rand.New(rand.NewSource(int64(page)))
					model := &refNode{label: lPlay}
					ops := 600
					if page > 512 {
						ops = 1500
					}
					for op := 0; op < ops; op++ {
						var paths []Path
						if bad.Intn(100) < 5 {
							modelPaths(model, Path{}, false, &paths)
							paths = slices.DeleteFunc(paths, func(p Path) bool { return !modelAt(model, p).isText })
							if len(paths) > 0 {
								p := paths[bad.Intn(len(paths))]
								below := append(p.Clone(), 0)
								tw.refuse(fmt.Sprintf("op %d: delete %s below a text", op, below),
									func(tr *Tree) error { return tr.Delete(below) },
									func(tr *Tree) error { return refDelete(tr, below, tw.splice) })
								tw.refuse(fmt.Sprintf("op %d: insert under the text %s", op, p),
									func(tr *Tree) error { return tr.InsertChild(p, 0, noderep.NewAggregate(lLine)) },
									func(tr *Tree) error { return refInsertChild(tr, p, 0, noderep.NewAggregate(lLine), tw.splice) })
							}
							paths = paths[:0]
						}
						if rng.Intn(100) < 15 && len(model.children) > 0 {
							modelPaths(model, Path{}, false, &paths)
							p := paths[rng.Intn(len(paths))]
							tw.delete(fmt.Sprintf("op %d: delete %s", op, p), p)
							parent := modelAt(model, p[:len(p)-1])
							i := p[len(p)-1]
							parent.children = append(parent.children[:i], parent.children[i+1:]...)
							continue
						}
						modelPaths(model, Path{}, true, &paths)
						p := paths[rng.Intn(len(paths))]
						parent := modelAt(model, p)
						idx := rng.Intn(len(parent.children) + 1)
						rn := &refNode{label: labels[rng.Intn(len(labels))]}
						if rng.Intn(2) == 0 {
							rn = &refNode{isText: true, label: dict.Text,
								text: fmt.Sprintf("op %d %s", op, strings.Repeat("ha", rng.Intn(page/30)))}
						}
						tw.insert(fmt.Sprintf("op %d: insert at %s[%d]", op, p, idx), p, idx, func() *noderep.Node { return modelNode(rn) })
						parent.children = slices.Insert(parent.children, idx, rn)
					}
					ps := tw.done()
					if got := materialize(t, tw.trees[0]); !refEqual(got, model) {
						t.Fatal("tree differs from the model")
					}
					t.Logf("%d ops: %d spliced, %d rewritten, %d splits, %d records decoded", ops, ps.RecordsSpliced, ps.RecordsRewritten, ps.Splits, ps.RecordsDecoded)
					if ps.RecordsRewritten == 0 || ps.RecordsDeleted == 0 || ps.Splits == 0 && m.name == "other" {
						t.Fatalf("no split, fallback or record delete in the mix: %+v", ps)
					}
				})
			}
		}
	}
}
