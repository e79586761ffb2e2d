package natix

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"natix/internal/buffer"
	"natix/internal/core"
	"natix/internal/corpus"
	"natix/internal/dict"
	"natix/internal/noderep"
	"natix/internal/pagedev"
	"natix/internal/records"
	"natix/internal/segment"
	"natix/internal/xmlkit"
)

// speechPaths lists the paths of the model's SPEECH elements.
func speechPaths(n *xmlkit.Node, path []int, out *[][]int) {
	if n.Name == corpus.ElemSpeech {
		*out = append(*out, append([]int(nil), path...))
		return
	}
	for i, c := range n.Children {
		if !c.IsText() {
			speechPaths(c, append(path, i), out)
		}
	}
}

// TestEditAfterBulkLoad: a bulk load fills its pages and leaves no slack
// for later edits, so the first insert into a loaded record splits it —
// the paper's algorithm, as anywhere else. 2 000 seeded edits of a
// freshly loaded play (a LINE into a random SPEECH, its text, or a
// SPEECH's child deleted with its subtree) against an in-memory tree:
// the invariants hold throughout, the export is the model's byte for
// byte, and the splits stay within a stated count.
func TestEditAfterBulkLoad(t *testing.T) {
	db, err := Open(Options{PageSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	model := corpus.GeneratePlay(corpus.SmallSpec(1), 0)
	if err := db.ImportXML("play", strings.NewReader(xmlkit.SerializeString(model))); err != nil {
		t.Fatal(err)
	}
	doc, err := db.Document("play")
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := doc.RecordCount()
	if err != nil {
		t.Fatal(err)
	}
	var speeches [][]int
	speechPaths(model, nil, &speeches)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 2000; i++ {
		speech := speeches[rng.Intn(len(speeches))]
		kids := len(modelNode(model, speech).Children)
		var e nodeEdit
		switch k := rng.Intn(5); {
		case k == 0 && kids > 2:
			e = nodeEdit{del: true, parent: speech, idx: 1 + rng.Intn(kids-1)}
		case k < 3:
			e = nodeEdit{parent: speech, idx: 1 + rng.Intn(kids), name: corpus.ElemLine}
		default:
			// Text into the first still-empty LINE, else a new LINE.
			e = nodeEdit{parent: speech, idx: kids, name: corpus.ElemLine}
			for j, c := range modelNode(model, speech).Children {
				if c.Name == corpus.ElemLine && len(c.Children) == 0 {
					e = nodeEdit{parent: append(append([]int(nil), speech...), j), text: fmt.Sprintf("line %d, added after the load", i)}
					break
				}
			}
		}
		if err := e.apply(doc); err != nil {
			t.Fatalf("edit %d (%+v): %v", i, e, err)
		}
		e.applyToModel(model)
		if i%100 == 99 {
			if err := doc.Check(); err != nil {
				t.Fatalf("after edit %d: %v", i, err)
			}
		}
	}
	if err := doc.Check(); err != nil {
		t.Fatal(err)
	}
	if got, _ := exportOf(t, db, "play"); got != xmlkit.SerializeString(model) {
		t.Fatal("export differs from the model")
	}
	m, err := db.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	grown, err := doc.RecordCount()
	if err != nil {
		t.Fatal(err)
	}
	splits := m.Counters["core.splits"]
	t.Logf("%d records loaded, %d after 2000 edits; %d splits, %d records spliced, %d rewritten",
		loaded, grown, splits, m.Counters["core.records_spliced"], m.Counters["core.records_rewritten"])
	// Every loaded record is full and splits when the edits first reach it
	// (9 splits of 9 loaded records when this was written); the partitions
	// a split leaves have room again. A store that split per edit, or never,
	// would be broken in a way neither the check nor the export shows.
	if splits < int64(loaded)/2 || splits > 4*int64(loaded) {
		t.Errorf("%d splits over 2000 edits of %d loaded records, want between %d and %d", splits, loaded, loaded/2, 4*loaded)
	}
}

// modelNode returns the node of the model at path.
func modelNode(root *xmlkit.Node, path []int) *xmlkit.Node {
	for _, i := range path {
		root = root.Children[i]
	}
	return root
}

// BenchmarkEditAfterBulk is the fill-factor decision's cell (DESIGN.md,
// "Bulk loading"): one full-scale play bulk-loaded at 0.9 — a tenth of
// every record and page left free for later inserts — and at 1.0, then
// 21 000 seeded inserts (a LINE into a random SPEECH, then its text) on
// the tree manager alone, unlogged, in memory. One iteration is one
// loaded play and its inserts; only the inserts are timed. The fill
// factor is reachable through core.BulkOptions alone, so the benchmark
// builds the stack below the document store itself.
func BenchmarkEditAfterBulk(b *testing.B) {
	defer buffer.SetWindowCheck(buffer.SetWindowCheck(false)) // measure the production bracket
	const inserts = 21000
	play := corpus.GeneratePlay(corpus.DefaultSpec(), 0)
	labels := map[string]dict.LabelID{}
	for i, name := range corpus.ElementNames {
		labels[name] = dict.LabelID(3 + i)
	}
	for _, fill := range []float64{0.9, 1.0} {
		b.Run(fmt.Sprintf("fill=%.1f", fill), func(b *testing.B) {
			var splitsAt [3]int64 // after 1 000, 5 000 and all inserts
			var pages int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dev, err := pagedev.NewMem(8192)
				if err != nil {
					b.Fatal(err)
				}
				pool, err := buffer.NewSized(dev, 8<<20)
				if err != nil {
					b.Fatal(err)
				}
				seg, err := segment.Create(pool)
				if err != nil {
					b.Fatal(err)
				}
				store := core.New(records.New(seg), core.Config{CacheRecords: 4096})
				bb := store.NewBulkBuilder(core.BulkOptions{FillFactor: fill})
				var load func(n *xmlkit.Node)
				load = func(n *xmlkit.Node) {
					if n.IsText() {
						if err := bb.Leaf(noderep.NewTextLiteral(n.Text)); err != nil {
							b.Fatal(err)
						}
						return
					}
					if err := bb.Open(noderep.NewAggregate(labels[n.Name])); err != nil {
						b.Fatal(err)
					}
					for _, c := range n.Children {
						load(c)
					}
					if _, err := bb.Close(); err != nil {
						b.Fatal(err)
					}
				}
				load(play)
				root, err := bb.Finish()
				if err != nil {
					b.Fatal(err)
				}
				pages += bb.BatchStats().Pages
				tree := store.OpenTree(root)
				var speeches [][]int
				speechPaths(play, nil, &speeches)
				rng := rand.New(rand.NewSource(21))
				runtime.GC() // the load's garbage is not the inserts' to collect
				b.StartTimer()
				for k := 0; k < inserts; k += 2 {
					speech := core.Path(speeches[rng.Intn(len(speeches))])
					if err := tree.InsertChild(speech, 1, noderep.NewAggregate(labels[corpus.ElemLine])); err != nil {
						b.Fatal(err)
					}
					if err := tree.InsertChild(append(speech.Clone(), 1), 0, noderep.NewTextLiteral("a line of verse added after the load")); err != nil {
						b.Fatal(err)
					}
					switch k + 2 {
					case 1000:
						splitsAt[0] += store.Stats().Splits
					case 5000:
						splitsAt[1] += store.Stats().Splits
					}
				}
				b.StopTimer()
				splitsAt[2] += store.Stats().Splits
				if err := tree.CheckInvariants(); err != nil {
					b.Fatal(err)
				}
			}
			n := float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(n*inserts), "ns/insert")
			b.ReportMetric(float64(pages)/n, "pages-loaded")
			b.ReportMetric(float64(splitsAt[0])/n, "splits-1k")
			b.ReportMetric(float64(splitsAt[1])/n, "splits-5k")
			b.ReportMetric(float64(splitsAt[2])/n, "splits-21k")
		})
	}
}
