package docstore

import (
	"context"
	"io"
	"strings"
	"testing"

	"natix/internal/core"
	"natix/internal/corpus"
	"natix/internal/xmlkit"
)

// benchPlayStore imports one full-scale play (≈0.2 MB) at 8 KB pages
// with the path index on.
func benchPlayStore(b *testing.B) (*Store, int) {
	b.Helper()
	xml := xmlkit.SerializeString(corpus.GeneratePlay(corpus.DefaultSpec(), 0))
	s, _ := newDocStore(b, 8192, core.Config{CacheRecords: 4096})
	enableIndex(b, s)
	if _, err := s.ImportXML("play", strings.NewReader(xml)); err != nil {
		b.Fatal(err)
	}
	return s, len(xml)
}

// BenchmarkMarkup reads every //SPEECH match of a play out as markup
// (the paper's query 2: "recreate the textual representation") — by the
// streaming writer over the record images, and by the tree route: the
// scan over decoded records and the materialize-then-serialize read-out.
func BenchmarkMarkup(b *testing.B) {
	s, _ := benchPlayStore(b)
	steps, err := ParseQuery("//SPEECH")
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, markup func(Result) (string, error)) {
		b.ReportAllocs()
		var matches, bytes int64
		for i := 0; i < b.N; i++ {
			it, err := s.QueryIter(context.Background(), "play", steps, IterOptions{})
			if err != nil {
				b.Fatal(err)
			}
			for it.Next() {
				m, err := markup(it.Result())
				if err != nil {
					b.Fatal(err)
				}
				bytes += int64(len(m))
				matches++
			}
			if err := it.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(bytes / int64(b.N))
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(matches), "ns/match")
	}
	b.Run("stream", func(b *testing.B) { run(b, Result.Markup) })
	b.Run("tree", func(b *testing.B) {
		b.ReportAllocs()
		var matches, bytes int64
		for i := 0; i < b.N; i++ {
			refs, err := treeQuery(s, "play", steps)
			if err != nil {
				b.Fatal(err)
			}
			for _, ref := range refs {
				m, err := refMarkup(s, ref)
				if err != nil {
					b.Fatal(err)
				}
				bytes += int64(len(m))
				matches++
			}
		}
		b.SetBytes(bytes / int64(b.N))
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(matches), "ns/match")
	})
}

// BenchmarkExportXML serializes the whole play to io.Discard, by the
// streaming writer and by the reference.
func BenchmarkExportXML(b *testing.B) {
	s, size := benchPlayStore(b)
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(size))
		for i := 0; i < b.N; i++ {
			if err := s.ExportXML("play", io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(size))
		root := mustRootRef(b, s, "play")
		for i := 0; i < b.N; i++ {
			xn, err := refXMLFromRef(s, root)
			if err != nil {
				b.Fatal(err)
			}
			if err := xmlkit.Serialize(io.Discard, xn); err != nil {
				b.Fatal(err)
			}
		}
	})
}
