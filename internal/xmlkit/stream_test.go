package xmlkit

import (
	"io"
	"strings"
	"testing"
)

// TestStreamLongTextSplit checks that a text run beyond the split limit
// arrives as several events that concatenate to the original, with no
// entity torn at a chunk edge.
func TestStreamLongTextSplit(t *testing.T) {
	long := strings.Repeat("abcdefgh ", 20<<10) // ~180 KB
	// Sprinkle entities so splits risk landing inside one.
	long = long[:textSplitLimit-3] + "&amp;" + long[textSplitLimit-3:] + "&#x41;"
	src := "<a>" + long + "</a>"
	p := NewStreamParser(strings.NewReader(src), ParseOptions{})
	var got strings.Builder
	events := 0
	for {
		ev, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind == EventText {
			events++
			got.WriteString(ev.Text)
		}
	}
	if events < 2 {
		t.Fatalf("long run produced %d text events, want several", events)
	}
	want, err := DecodeEntities(long)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want {
		t.Fatalf("reassembled text differs: got %d bytes, want %d", got.Len(), len(want))
	}
	// Parse joins the chunks again: the run is one text node.
	doc, err := ParseString(src, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c := doc.Root.Children; len(c) != 1 || c[0].Text != want {
		t.Fatalf("Parse made %d text nodes of one long run, want one holding it whole", len(c))
	}
}

// TestStreamWhitespaceRunSplit: a run whose first chunks are whitespace
// but which is non-whitespace overall must be kept whole; a run that is
// whitespace throughout must be dropped (default) even when it spans
// chunks.
func TestStreamWhitespaceRunSplit(t *testing.T) {
	ws := strings.Repeat(" \n\t", textSplitLimit/2)
	doc, err := ParseString("<a>"+ws+"word</a>", ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if root := doc.Root; len(root.Children) != 1 || root.Children[0].Text != ws+"word" {
		t.Fatalf("leading-whitespace run not preserved whole")
	}
	doc, err = ParseString("<a><b/>"+ws+"<c/></a>", ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Root.Children) != 2 {
		t.Fatalf("whitespace-only run not dropped: %d children", len(doc.Root.Children))
	}
}

// TestStreamCDATATokens: CDATA sections are their own character-data
// tokens — whitespace-only ones are dropped independently of adjacent
// text, and token boundaries are visible through Cont.
func TestStreamCDATATokens(t *testing.T) {
	collect := func(src string) []Event {
		p := NewStreamParser(strings.NewReader(src), ParseOptions{})
		var evs []Event
		for {
			ev, err := p.Next()
			if err == io.EOF {
				return evs
			}
			if err != nil {
				t.Fatalf("%q: %v", src, err)
			}
			if ev.Kind == EventText {
				evs = append(evs, ev)
			}
		}
	}
	// Whitespace-only / empty CDATA between text: dropped, like the DOM
	// parser drops the token.
	for _, src := range []string{`<a>foo<![CDATA[  ]]>bar</a>`, `<a>foo<![CDATA[]]>bar</a>`} {
		evs := collect(src)
		if len(evs) != 2 || evs[0].Text != "foo" || evs[1].Text != "bar" {
			t.Fatalf("%q: events %+v", src, evs)
		}
		if evs[0].Cont || evs[1].Cont {
			t.Fatalf("%q: distinct tokens marked as continuations", src)
		}
	}
	// Whitespace around a kept CDATA stays dropped.
	evs := collect(`<a>  <![CDATA[x]]>  </a>`)
	if len(evs) != 1 || evs[0].Text != "x" {
		t.Fatalf("events %+v", evs)
	}
	// Adjacent text and CDATA are separate tokens (Cont=false each).
	evs = collect(`<a>one<![CDATA[two]]>three</a>`)
	if len(evs) != 3 || evs[0].Cont || evs[1].Cont || evs[2].Cont {
		t.Fatalf("events %+v", evs)
	}
}

// TestStreamGiantCDATASplit: an oversized CDATA section arrives as
// several continuation chunks that reassemble exactly.
func TestStreamGiantCDATASplit(t *testing.T) {
	body := strings.Repeat("cdata payload ] ]> almost ", 10_000) // ~260 KB, terminator look-alikes
	src := `<a><![CDATA[` + body + `]]></a>`
	p := NewStreamParser(strings.NewReader(src), ParseOptions{})
	var got strings.Builder
	var texts int
	for {
		ev, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind == EventText {
			if texts > 0 && !ev.Cont {
				t.Fatal("split CDATA chunk not marked Cont")
			}
			texts++
			got.WriteString(ev.Text)
		}
	}
	if texts < 2 {
		t.Fatalf("giant CDATA produced %d text events, want several", texts)
	}
	if got.String() != body {
		t.Fatalf("reassembled CDATA differs: %d vs %d bytes", got.Len(), len(body))
	}
}

func TestStreamErrors(t *testing.T) {
	cases := map[string]string{
		"mismatch":      `<a><b></a></b>`,
		"unclosed":      `<a><b>`,
		"multipleRoots": `<a/><b/>`,
		"textOutside":   `junk<a/>`,
		"trailingText":  `<a/>junk`,
		"badEntity":     `<a>&nope;</a>`,
		"unterminated":  `<a`,
		"noRoot":        `<!-- only a comment -->`,
		"badAttr":       `<a x=1/>`,
		"strayEnd":      `</a>`,
		"unterComment":  `<a><!-- nope</a>`,
		"unterCDATA":    `<a><![CDATA[x</a>`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			p := NewStreamParser(strings.NewReader(src), ParseOptions{})
			for {
				_, err := p.Next()
				if err == io.EOF {
					t.Fatalf("stream accepted malformed %q", src)
				}
				if err != nil {
					return // got the expected error
				}
			}
		})
	}
}

// TestStreamSmallReads feeds the parser through a reader that returns a
// few bytes at a time, exercising refill at every token boundary.
func TestStreamSmallReads(t *testing.T) {
	src := `<a href="x>y"><b>text &amp; more</b><![CDATA[raw]]><c/></a>`
	p := NewStreamParser(&drips{s: src, n: 3}, ParseOptions{})
	var kinds []EventKind
	for {
		ev, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, ev.Kind)
	}
	want := []EventKind{EventStart, EventStart, EventText, EventEnd, EventText, EventStart, EventEnd, EventEnd}
	if len(kinds) != len(want) {
		t.Fatalf("got %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d: got %v, want %v", i, kinds[i], want[i])
		}
	}
}

// drips returns at most n bytes per Read.
type drips struct {
	s string
	n int
}

func (d *drips) Read(p []byte) (int, error) {
	if len(d.s) == 0 {
		return 0, io.EOF
	}
	n := d.n
	if n > len(d.s) {
		n = len(d.s)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, d.s[:n])
	d.s = d.s[n:]
	return n, nil
}
