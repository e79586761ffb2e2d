package core

import (
	"bytes"
	"fmt"
	"math/rand"
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

// TestSpliceInFrameMatchesReadIntoSplice builds a corpus play node by
// node in binary-tree BFS order (corpus.BinaryBFSOps), deleting and
// re-inserting a seeded few of the nodes it adds, on twin logged stores:
// the production path, which computes and applies each node edit inside
// the record's one pinned, latched frame (records.Manager.Edit), and the
// path it replaced, which read the image out with ReadInto and handed the
// splice to records.Manager.Splice (refSpliceRecord). Under the four
// split-matrix settings and pages of 512 and 8192 bytes, after every edit
// the two stores hold the same page images and the same log, byte for
// byte.
func TestSpliceInFrameMatchesReadIntoSplice(t *testing.T) {
	play := corpus.GeneratePlay(corpus.SmallSpec(1), 0)
	ops := corpus.BinaryBFSOps(play)
	labels := map[string]dict.LabelID{}
	for i, name := range corpus.ElementNames {
		labels[name] = dict.LabelID(3 + i)
	}
	node := func(op corpus.InsertOp) *noderep.Node {
		if op.IsText {
			return noderep.NewTextLiteral(op.Text)
		}
		return noderep.NewAggregate(labels[op.Name])
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
				var trees [2]*Tree
				var stores [2]*loggedStore
				for i := range stores {
					stores[i] = newLoggedStore(t, page, Config{Matrix: m.matrix(), CacheRecords: 64})
					stores[i].op(t, "create-tree", func() (err error) {
						trees[i], err = stores[i].CreateTree(labels[play.Name])
						return err
					})
				}
				prod, ref := stores[0], stores[1]
				ref.spliceHook = refSpliceRecord
				edit := func(kind string, fn func(*Tree) error) {
					t.Helper()
					for i, ls := range stores {
						ls.op(t, kind, func() error { return fn(trees[i]) })
					}
					prod.sameAs(t, ref, kind)
				}
				rng := rand.New(rand.NewSource(int64(page)))
				deletes := 0
				for i, op := range ops {
					insert := func(tr *Tree) error { return tr.InsertChild(Path(op.ParentPath), op.Index, node(op)) }
					edit(fmt.Sprintf("insert %d", i), insert)
					if rng.Intn(100) < 3 {
						at := append(Path(op.ParentPath).Clone(), op.Index)
						edit(fmt.Sprintf("delete %d", i), func(tr *Tree) error { return tr.Delete(at) })
						edit(fmt.Sprintf("re-insert %d", i), insert)
						deletes++
					}
				}
				if err := trees[0].CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				ps, rs := prod.Stats(), ref.Stats()
				t.Logf("%d inserts, %d deletes: %d spliced, %d rewritten, %d splits", len(ops), deletes, ps.RecordsSpliced, ps.RecordsRewritten, ps.Splits)
				if ps.RecordsSpliced == 0 || ps.RecordsSpliced != rs.RecordsSpliced || ps.RecordsRewritten != rs.RecordsRewritten || ps.Splits != rs.Splits {
					t.Fatalf("counters %+v, reference %+v", ps, rs)
				}
			})
		}
	}
}
