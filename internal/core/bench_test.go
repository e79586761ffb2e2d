package core

import (
	"testing"

	"natix/internal/buffer"
	"natix/internal/corpus"
	"natix/internal/dict"
	"natix/internal/noderep"
	"natix/internal/pagedev"
	"natix/internal/records"
	"natix/internal/segment"
)

// BenchmarkInsertChildBFS is the paper's Figure 9 incremental workload on
// the tree manager alone: one full-scale play built node by node in
// binary-tree BFS order (inserts spread over the whole document) into an
// unlogged in-memory store with 8 KB pages. One iteration is one play.
func BenchmarkInsertChildBFS(b *testing.B) {
	defer buffer.SetWindowCheck(buffer.SetWindowCheck(false)) // measure the production bracket
	play := corpus.GeneratePlay(corpus.DefaultSpec(), 0)
	ops := corpus.BinaryBFSOps(play)
	labels := map[string]dict.LabelID{}
	for i, name := range corpus.ElementNames {
		labels[name] = dict.LabelID(3 + i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dev, err := pagedev.NewMem(8192)
		if err != nil {
			b.Fatal(err)
		}
		pool, err := buffer.NewSized(dev, 2<<20)
		if err != nil {
			b.Fatal(err)
		}
		seg, err := segment.Create(pool)
		if err != nil {
			b.Fatal(err)
		}
		tree, err := New(records.New(seg), Config{CacheRecords: 4096}).CreateTree(labels[play.Name])
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, op := range ops {
			n := noderep.NewTextLiteral(op.Text)
			if !op.IsText {
				n = noderep.NewAggregate(labels[op.Name])
			}
			if err := tree.InsertChild(Path(op.ParentPath), op.Index, n); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ops)), "ns/node")
}

// BenchmarkResolveRun resolves every facade index of one full 8 KB
// record in ascending order — the postings of a record as a query
// consumes them — through a kept FacadeWalker (one walk per run) and
// through the one-shot RefByFacadeIndex (a walk from the record root
// per index).
func BenchmarkResolveRun(b *testing.B) {
	s := newStore(b, 8192, Config{CacheRecords: 4096})
	bb := s.NewBulkBuilder(BulkOptions{})
	if err := bb.Open(noderep.NewAggregate(lPlay)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := bb.Open(noderep.NewAggregate(lLine)); err != nil {
			b.Fatal(err)
		}
		if err := bb.Leaf(noderep.NewTextLiteral("demand me nothing")); err != nil {
			b.Fatal(err)
		}
		if _, err := bb.Close(); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := bb.Close(); err != nil {
		b.Fatal(err)
	}
	root, err := bb.Finish()
	if err != nil {
		b.Fatal(err)
	}
	// The fullest record of the tree.
	var rid records.RID
	nodes := 0
	rids, facades := recordsOf(b, s, root)
	for i, n := range facades {
		if n > nodes {
			rid, nodes = rids[i], n
		}
	}

	b.Run("walker", func(b *testing.B) {
		var (
			w   FacadeWalker
			ref ReadRef
		)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for idx := 0; idx < nodes; idx++ {
				if err := w.Load(s, rid); err != nil {
					b.Fatal(err)
				}
				if err := w.Ref(idx, &ref); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes), "ns/node")
	})
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for idx := 0; idx < nodes; idx++ {
				if _, err := s.RefByFacadeIndex(rid, idx); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes), "ns/node")
	})
}
