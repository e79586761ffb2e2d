package noderep

import (
	"fmt"
	"testing"

	"natix/internal/dict"
)

// benchTree builds a SPEECH-like subtree of roughly n text leaves.
func benchTree(n int) *Node {
	root := NewAggregate(dict.LabelID(3))
	for i := 0; i < n; i++ {
		line := NewAggregate(dict.LabelID(4))
		line.AppendChild(NewTextLiteral(fmt.Sprintf("line %04d with typical verse length padding", i)))
		root.AppendChild(line)
	}
	return root
}

func BenchmarkEncode(b *testing.B) {
	rec := &Record{Root: benchTree(50)}
	size := EncodedSize(rec)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	rec := &Record{Root: benchTree(50)}
	buf, err := Encode(rec)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenImage is an image-cache miss's work past the copy: check
// every header of a record image and build its node table. It reports
// the cost per node and the table's bytes per image byte.
func BenchmarkOpenImage(b *testing.B) {
	rec := &Record{Root: benchTree(50)}
	buf, err := Encode(rec)
	if err != nil {
		b.Fatal(err)
	}
	img := string(buf)
	im, err := OpenImage(img)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OpenImage(img); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(im.nodes), "ns/node")
	b.ReportMetric(float64(im.Footprint()-len(img))/float64(len(img)), "table-B/B")
}

func BenchmarkEncodedSize(b *testing.B) {
	rec := &Record{Root: benchTree(50)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if EncodedSize(rec) == 0 {
			b.Fatal("zero size")
		}
	}
}

func BenchmarkContentSize(b *testing.B) {
	tree := benchTree(200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tree.ContentSize() == 0 {
			b.Fatal("zero size")
		}
	}
}

// BenchmarkMeasureEmit is the tree manager's per-write path: one measure
// and one emit with the layout and the image buffer reused.
func BenchmarkMeasureEmit(b *testing.B) {
	rec := &Record{Root: benchTree(50)}
	var l Layout
	var buf []byte
	b.SetBytes(int64(EncodedSize(rec)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Measure(rec, &l); err != nil {
			b.Fatal(err)
		}
		var err error
		if buf, err = l.Emit(buf, rec); err != nil {
			b.Fatal(err)
		}
	}
}
