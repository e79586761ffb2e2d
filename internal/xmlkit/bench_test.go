package xmlkit

import (
	"io"
	"strings"
	"testing"
)

// benchDoc is a small play fragment repeated to parser-meaningful size.
var benchDoc = "<PLAY><TITLE>Benchmark</TITLE>" + strings.Repeat(
	`<SPEECH><SPEAKER>IAGO</SPEAKER><LINE>I am not what I am &amp; never was;</LINE><LINE>demand me nothing</LINE></SPEECH>`, 200) + "</PLAY>"

func BenchmarkStream(b *testing.B) {
	b.SetBytes(int64(len(benchDoc)))
	for i := 0; i < b.N; i++ {
		p := NewStreamParser(strings.NewReader(benchDoc), ParseOptions{})
		for {
			_, err := p.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkParse(b *testing.B) {
	b.SetBytes(int64(len(benchDoc)))
	for i := 0; i < b.N; i++ {
		if _, err := ParseString(benchDoc, ParseOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerialize(b *testing.B) {
	doc, err := ParseString(benchDoc, ParseOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(benchDoc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if SerializeString(doc.Root) == "" {
			b.Fatal("empty output")
		}
	}
}

func BenchmarkDecodeEntities(b *testing.B) {
	s := strings.Repeat("fish &amp; chips &lt;&gt; &#65; ", 50)
	b.SetBytes(int64(len(s)))
	for i := 0; i < b.N; i++ {
		if _, err := DecodeEntities(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendEscapedText(b *testing.B) {
	line := []byte("I am not what I am & never was; demand me nothing, what you know")
	var buf []byte
	b.SetBytes(int64(len(line)))
	for i := 0; i < b.N; i++ {
		buf = AppendEscapedText(buf[:0], line)
	}
}
