package pathindex_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"natix/internal/buffer"
	"natix/internal/core"
	"natix/internal/corpus"
	"natix/internal/dict"
	"natix/internal/docstore"
	"natix/internal/noderep"
	"natix/internal/pagedev"
	"natix/internal/pathindex"
	"natix/internal/records"
	"natix/internal/segment"
	"natix/internal/xmlkit"
)

// diffDoc is one seeded document of the differential suite. matrix, when
// set, adjusts the split matrix once the labels it names are interned.
type diffDoc struct {
	name   string
	xml    func(rng *rand.Rand) string
	matrix func(m *core.SplitMatrix, label func(string) dict.LabelID)
}

var diffDocs = []diffDoc{
	{name: "deep", xml: func(rng *rand.Rand) string {
		var b strings.Builder
		depth := 150 + rng.Intn(100)
		for i := 0; i < depth; i++ {
			fmt.Fprintf(&b, "<n%d>level %d ", i%3, i)
		}
		for i := depth - 1; i >= 0; i-- {
			fmt.Fprintf(&b, "</n%d>", i%3)
		}
		return b.String()
	}},
	{name: "wide", xml: func(rng *rand.Rand) string {
		var b strings.Builder
		b.WriteString("<root>")
		for i, n := 0, 1500+rng.Intn(500); i < n; i++ {
			fmt.Fprintf(&b, "<item>v%d</item>", rng.Intn(1000))
		}
		b.WriteString("</root>")
		return b.String()
	}},
	{name: "attributes", xml: func(rng *rand.Rand) string {
		var b strings.Builder
		b.WriteString(`<table name="t" rows="many">`)
		for i, n := 0, 300+rng.Intn(200); i < n; i++ {
			fmt.Fprintf(&b, `<row id="%d" kind="k%d" note="%s"><cell w="%d"/><cell w="%d">x</cell></row>`,
				i, rng.Intn(4), strings.Repeat("n", rng.Intn(40)), rng.Intn(9), rng.Intn(9))
		}
		b.WriteString("</table>")
		return b.String()
	}},
	{name: "mixed", xml: func(rng *rand.Rand) string {
		var b strings.Builder
		b.WriteString("<doc>")
		for i, n := 0, 120+rng.Intn(60); i < n; i++ {
			fmt.Fprintf(&b, "<p>lead %s<b>bold<i>both</i></b> middle <![CDATA[raw <%d>]]> tail<br/>%s</p>",
				strings.Repeat("text ", rng.Intn(30)), i, strings.Repeat("long run ", rng.Intn(400)))
		}
		b.WriteString("</doc>")
		return b.String()
	}},
	// Text literals stored as standalone records (the paper's "text in
	// its own record" policy): every <line>'s text becomes a record of one
	// literal, and the <line>s themselves carry only proxies.
	{name: "standalone-literals", xml: func(rng *rand.Rand) string {
		var b strings.Builder
		b.WriteString("<poem>")
		for i, n := 0, 400+rng.Intn(200); i < n; i++ {
			fmt.Fprintf(&b, "<line>%s</line>", strings.Repeat("word ", 1+rng.Intn(12)))
		}
		b.WriteString("</poem>")
		return b.String()
	}, matrix: func(m *core.SplitMatrix, label func(string) dict.LabelID) {
		m.Set(label("line"), dict.Text, core.PolicyStandalone)
	}},
}

// diffEnv is a store with a path index, over a given tree configuration.
type diffEnv struct {
	store *docstore.Store
	dict  *dict.Dict
	px    *pathindex.Store
}

func newDiffEnv(t testing.TB, pageSize int, matrix *core.SplitMatrix) *diffEnv {
	t.Helper()
	dev, err := pagedev.NewMem(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.New(dev, 4096)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := segment.Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	rm := records.New(seg)
	d, err := dict.Create(rm)
	if err != nil {
		t.Fatal(err)
	}
	s, err := docstore.Create(core.New(rm, core.Config{Matrix: matrix}), d)
	if err != nil {
		t.Fatal(err)
	}
	px, err := pathindex.Open(rm)
	if err != nil {
		t.Fatal(err)
	}
	s.EnablePathIndex(px)
	return &diffEnv{store: s, dict: d, px: px}
}

// referenceIndex rebuilds a stored document's index with the reference
// builder, replaying the load from the records: the logical walk (proxies
// followed, scaffolds transparent) gives the Enter/Literal/Exit calls in
// document order, and every record visited one OnRecord call. The
// reference builder sorts at Finish, so it does not mind that the records
// come after all the elements instead of bottom-up in between.
func referenceIndex(t *testing.T, trees *core.Store, root records.RID) *pathindex.Index {
	t.Helper()
	ref := pathindex.NewRefStreamBuilder()
	type stored struct {
		rid  records.RID
		root *noderep.Node
	}
	var recs []stored
	var walk func(n *noderep.Node)
	load := func(rid records.RID) {
		rec, err := trees.LoadRecordForInspection(rid)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, stored{rid, rec.Root})
		walk(rec.Root)
	}
	walk = func(n *noderep.Node) {
		switch {
		case n.Kind == noderep.KindProxy:
			load(n.Target)
		case n.Kind == noderep.KindLiteral:
			ref.Literal()
		case n.Scaffold:
			for _, c := range n.Children {
				walk(c)
			}
		default:
			ref.Enter(n)
			for _, c := range n.Children {
				walk(c)
			}
			if err := ref.Exit(n); err != nil {
				t.Fatal(err)
			}
		}
	}
	load(root)
	for _, r := range recs {
		if err := ref.OnRecord(r.rid, r.root); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := ref.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestStreamIndexMatchesReference holds the index the bulk load builds
// to the map-and-sort builder it replaced, through every way into the
// bulk load: each stored index must decode deeply equal to the
// reference's (summary, counts, every posting list) and its blobs be
// byte-equal to the reference's encoding. So must the index
// ReindexDocument rebuilds by walking the stored tree — of the same
// documents, which makes stream-built and rebuilt blobs byte-equal, and
// of a play stored node by node, whose records are what splits left.
func TestStreamIndexMatchesReference(t *testing.T) {
	for _, m := range []struct {
		name   string
		matrix func() *core.SplitMatrix
	}{{"other", core.AllOther}, {"standalone", core.AllStandalone}} {
		for _, pageSize := range []int{2048, 8192} {
			t.Run(fmt.Sprintf("%s/page%d", m.name, pageSize), func(t *testing.T) {
				matrix := m.matrix()
				e := newDiffEnv(t, pageSize, matrix)
				label := func(name string) dict.LabelID {
					id, err := e.store.InternLabel(name)
					if err != nil {
						t.Fatal(err)
					}
					return id
				}
				var names []string
				var batch []docstore.ImportDoc
				for i, doc := range diffDocs {
					if doc.matrix != nil {
						doc.matrix(matrix, label)
					}
					src := doc.xml(rand.New(rand.NewSource(int64(100*pageSize + i))))

					// One copy streamed, one parsed and serialized again, one
					// in the concurrent batch below.
					if _, err := e.store.ImportXML(doc.name+"/xml", strings.NewReader(src)); err != nil {
						t.Fatalf("%s: ImportXML: %v", doc.name, err)
					}
					tree, err := xmlkit.ParseString(src, xmlkit.ParseOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if _, err := e.store.ImportXML(doc.name+"/tree", strings.NewReader(xmlkit.SerializeString(tree.Root))); err != nil {
						t.Fatalf("%s: ImportXML of the parsed tree: %v", doc.name, err)
					}
					names = append(names, doc.name+"/xml", doc.name+"/tree", doc.name+"/batch")
					batch = append(batch, docstore.ImportDoc{Name: doc.name + "/batch", R: strings.NewReader(src)})
				}
				if _, err := e.store.ImportXMLBatch(context.Background(), batch, 4); err != nil {
					t.Fatalf("ImportXMLBatch: %v", err)
				}
				storeBFS(t, e.store, "play/bfs", corpus.GeneratePlay(corpus.SmallSpec(1), 0))
				if e.px.Has("play/bfs") {
					t.Fatal("a document stored node by node has an index before ReindexDocument")
				}
				for _, name := range append(names, "play/bfs") {
					info, err := e.store.Lookup(name)
					if err != nil {
						t.Fatal(err)
					}
					want := referenceIndex(t, e.store.Trees(), info.Root)
					// Build over the record images, against the same walk
					// over the decoded records and the reference builder.
					got, err := pathindex.Build(e.store.Trees(), info.Root)
					if err != nil {
						t.Fatalf("%s: Build: %v", name, err)
					}
					ref, err := pathindex.RefBuild(e.store.Trees(), info.Root)
					if err != nil {
						t.Fatalf("%s: reference Build: %v", name, err)
					}
					if d := pathindex.DiffIndex(got, ref); d != "" {
						t.Errorf("%s: Build over images, against decoded records: %s", name, d)
					}
					if d := pathindex.DiffIndex(got, want); d != "" {
						t.Errorf("%s: Build, against the reference builder: %s", name, d)
					}
					for _, built := range []string{"stream-built", "rebuilt"} {
						if built == "rebuilt" {
							if err := e.store.ReindexDocument(name); err != nil {
								t.Fatalf("%s: ReindexDocument: %v", name, err)
							}
						} else if !e.px.Has(name) {
							continue
						}
						d, err := pathindex.DiffStored(e.px, name, want)
						if err != nil {
							t.Fatalf("%s %s: %v", built, name, err)
						}
						if d != "" {
							t.Errorf("%s %s: %s", built, name, d)
						}
					}
				}
			})
		}
	}
}
