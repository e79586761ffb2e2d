// Import benchmarks: the streaming bulk loader against the per-node
// incremental growth procedure it replaced, across document shapes.
// b.SetBytes reports MB/s over the XML text; records-rewritten/op shows
// the write amplification the bulk path eliminates (≈0 vs one rewrite
// per child placed).
package natix

import (
	"fmt"
	"strings"
	"testing"

	"natix/internal/corpus"
	"natix/internal/xmlkit"
)

// importShape is one benchmark document.
type importShape struct {
	name string
	xml  string
}

func importShapes() []importShape {
	spec := corpus.DefaultSpec()
	var shapes []importShape

	// One generated play: the paper's document unit (~0.2 MB).
	play := corpus.GeneratePlay(spec, 0)
	shapes = append(shapes, importShape{"play", xmlkit.SerializeString(play)})

	// Mixed-shape corpus ≥ 1 MB: several plays with attributes under one
	// root — elements, nested structure, text runs and attribute nodes.
	root := xmlkit.NewElement("CORPUS")
	for i := 0; i < 6; i++ {
		p := corpus.GeneratePlay(spec, i)
		p.SetAttr("id", fmt.Sprintf("play-%d", i))
		p.SetAttr("genre", "tragedy")
		root.Append(p)
	}
	shapes = append(shapes, importShape{"mixed_1mb", xmlkit.SerializeString(root)})

	// Deep: a 400-level chain with text at every level.
	var deep strings.Builder
	deep.WriteString("<root>")
	for i := 0; i < 400; i++ {
		deep.WriteString("<nest>level text here")
	}
	for i := 0; i < 400; i++ {
		deep.WriteString("</nest>")
	}
	deep.WriteString("</root>")
	shapes = append(shapes, importShape{"deep", deep.String()})

	// Wide: one element with thousands of small children. (Kept modest:
	// the incremental baseline is quadratic in fanout, and the CI smoke
	// job runs every benchmark once.)
	var wide strings.Builder
	wide.WriteString("<root>")
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&wide, "<item>v%d</item>", i)
	}
	wide.WriteString("</root>")
	shapes = append(shapes, importShape{"wide", wide.String()})

	// Texty: long character runs dominate (chunked literals).
	var texty strings.Builder
	texty.WriteString("<doc>")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&texty, "<chapter>%s</chapter>", strings.Repeat("prose and more prose ", 800))
	}
	texty.WriteString("</doc>")
	shapes = append(shapes, importShape{"texty", texty.String()})

	return shapes
}

// BenchmarkImport measures document loading end to end (parse included)
// through both paths.
func BenchmarkImport(b *testing.B) {
	for _, shape := range importShapes() {
		parsed, err := xmlkit.ParseString(shape.xml, xmlkit.ParseOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []string{"bulk", "incremental"} {
			b.Run(shape.name+"/"+mode, func(b *testing.B) {
				db, err := Open(Options{})
				if err != nil {
					b.Fatal(err)
				}
				defer db.Close()
				b.SetBytes(int64(len(shape.xml)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					name := fmt.Sprintf("doc-%d", i)
					if mode == "bulk" {
						err = db.ImportXML(name, strings.NewReader(shape.xml))
					} else {
						_, err = db.store.ImportTreeIncremental(name, parsed.Root)
					}
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					if err := db.Delete(name); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				b.StopTimer()
				st, err := db.Stats()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(st.RecordsRewritten)/float64(b.N), "rewrites/op")
			})
		}
	}
}

// BenchmarkImportIndexed measures bulk import with the single-pass path
// index against import-then-reindex (the two-pass build it replaced).
func BenchmarkImportIndexed(b *testing.B) {
	shape := importShapes()[1] // mixed_1mb
	b.Run("single_pass", func(b *testing.B) {
		db, err := Open(Options{PathIndex: true})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		b.SetBytes(int64(len(shape.xml)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			name := fmt.Sprintf("doc-%d", i)
			if err := db.ImportXML(name, strings.NewReader(shape.xml)); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := db.Delete(name); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
	b.Run("import_then_reindex", func(b *testing.B) {
		db, err := Open(Options{PathIndex: true})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		parsed, err := xmlkit.ParseString(shape.xml, xmlkit.ParseOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(shape.xml)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			name := fmt.Sprintf("doc-%d", i)
			if _, err := db.store.ImportTreeIncremental(name, parsed.Root); err != nil {
				b.Fatal(err)
			}
			if err := db.ReindexDocument(name); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := db.Delete(name); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
}
