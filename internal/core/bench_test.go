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
