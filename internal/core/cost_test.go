package core

import (
	"testing"

	"natix/internal/corpus"
	"natix/internal/dict"
	"natix/internal/noderep"
)

// TestEditCost pins what the paper's node-by-node insert costs, in counts
// only: a corpus play built in binary-tree BFS order (corpus.BinaryBFSOps)
// on 8 KB pages, under both split-matrix extremes. An edit reads the
// records it passes where they lie — the proxies in front of the child it
// wants by their counts, no record behind them — and splices the one it
// changes, moving the spliced image whole when its page cannot hold it;
// it decodes a record only where the image cannot take the edit — a new
// type-table entry, a fuse or unfuse the splice refuses — or to split it.
// Under all-other that is 10 of the 589 edits. Under all-standalone, where
// every child is a proxy and a proxy cites no type-table entry, it is
// none. The ceilings are the counts measured: the logical reads were 1505
// and 14957 while a locate read every proxy target in front of the child
// it wanted, 2696 and 14957 while the writer kept decoded trees in a cache
// of its own.
func TestEditCost(t *testing.T) {
	play := corpus.GeneratePlay(corpus.SmallSpec(1), 0)
	ops := corpus.BinaryBFSOps(play)
	labels := map[string]dict.LabelID{}
	for i, name := range corpus.ElementNames {
		labels[name] = dict.LabelID(3 + i)
	}
	for _, c := range []struct {
		name   string
		matrix func() *SplitMatrix
		reads  int64   // the logical reads of the whole build at most
		decode float64 // the records decoded per edit at most
	}{
		{"other", AllOther, 1355, 10.0 / 589},
		{"standalone", AllStandalone, 7619, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := newStore(t, 8192, Config{Matrix: c.matrix(), CacheRecords: 4096})
			tr, err := s.CreateTree(labels[play.Name])
			if err != nil {
				t.Fatal(err)
			}
			pool := s.Records().Segment().Pool()
			reads, decoded := pool.Stats().LogicalReads, s.Stats().RecordsDecoded
			for _, op := range ops {
				var n *noderep.Node
				if op.IsText {
					n = noderep.NewTextLiteral(op.Text)
				} else {
					n = noderep.NewAggregate(labels[op.Name])
				}
				if err := tr.InsertChild(Path(op.ParentPath), op.Index, n); err != nil {
					t.Fatal(err)
				}
			}
			reads, decoded = pool.Stats().LogicalReads-reads, s.Stats().RecordsDecoded-decoded
			edits := float64(len(ops))
			t.Logf("%d edits: %d logical reads (%.2f per edit), %d records decoded (%.4f per edit)",
				len(ops), reads, float64(reads)/edits, decoded, float64(decoded)/edits)
			if float64(decoded)/edits > c.decode {
				t.Errorf("%.4f records decoded per edit, want at most %.4f", float64(decoded)/edits, c.decode)
			}
			if reads > c.reads {
				t.Errorf("%d logical reads, want at most %d", reads, c.reads)
			}
		})
	}
}
