package xmlkit_test

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"natix/internal/corpus"
	"natix/internal/xmlkit"
)

// wellFormed are documents every parser here must read alike: the
// reference below, Parse over a string and Parse a byte at a time.
var wellFormed = map[string]string{
	"simple":     `<a><b>hi</b><c x="1" y="two"/></a>`,
	"attrs":      `<r id="1" name="n&amp;m"><e a='sq'/><e a="&#65;"/></r>`,
	"mixedText":  `<p>before<b>bold</b>after<i>it</i>tail</p>`,
	"cdata":      `<a>x<![CDATA[<raw> & stuff]]>y</a>`,
	"comments":   `<?xml version="1.0"?><!-- c --><a><!-- in -->t<?pi data?></a><!-- after -->`,
	"doctype":    `<!DOCTYPE a [<!ELEMENT a (b)*>]><a><b/></a>`,
	"entities":   `<a>&lt;&gt;&amp;&apos;&quot;&#x41;&#66;</a>`,
	"whitespace": "<a>\n  <b> x </b>\n  <c/>\n</a>",
	"deep":       strings.Repeat("<d>", 200) + "leaf" + strings.Repeat("</d>", 200),
	"gtInAttr":   `<a x="1>2"><b y='a>b'/></a>`,
	"emptyRoot":  `<a/>`,
	"utf8":       `<räksmörgås läge="åäö">grüße</räksmörgås>`,
}

// refParse is the tree Parse is held to, built from encoding/xml's raw
// tokens with Parse's whitespace rule: a whitespace-only character-data
// token is dropped, unless KeepWhitespace is set and it lies inside the
// root. Each character-data token (text, or one CDATA section) is one
// text node.
func refParse(src string, opts xmlkit.ParseOptions) (*xmlkit.Node, error) {
	d := xml.NewDecoder(strings.NewReader(src))
	var root *xmlkit.Node
	var stack []*xmlkit.Node
	name := func(n xml.Name) string {
		if n.Space != "" {
			return n.Space + ":" + n.Local
		}
		return n.Local
	}
	for {
		tok, err := d.RawToken()
		if err == io.EOF {
			if root == nil || len(stack) > 0 {
				return nil, errors.New("reference: incomplete document")
			}
			return root, nil
		}
		if err != nil {
			return nil, err
		}
		switch tok := tok.(type) {
		case xml.StartElement:
			n := xmlkit.NewElement(name(tok.Name))
			for _, a := range tok.Attr {
				n.Attrs = append(n.Attrs, xmlkit.Attr{Name: name(a.Name), Value: a.Value})
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, errors.New("reference: two roots")
				}
				root = n
			} else {
				stack[len(stack)-1].Append(n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			stack = stack[:len(stack)-1]
		case xml.CharData:
			text := string(tok)
			if strings.TrimSpace(text) == "" && (!opts.KeepWhitespace || len(stack) == 0) {
				continue
			}
			if len(stack) == 0 {
				return nil, errors.New("reference: text outside the root")
			}
			stack[len(stack)-1].Append(xmlkit.NewText(text))
		}
	}
}

// checkStreamEquiv parses src with Parse and with the reference and
// requires identical trees.
func checkStreamEquiv(t *testing.T, src string, opts xmlkit.ParseOptions) {
	t.Helper()
	want, err := refParse(src, opts)
	if err != nil {
		t.Fatalf("reference parse: %v", err)
	}
	doc, err := xmlkit.ParseString(src, opts)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !xmlkit.Equal(doc.Root, want) {
		t.Fatalf("Parse's tree differs from the reference\nreference: %s\nParse:     %s",
			xmlkit.SerializeString(want), xmlkit.SerializeString(doc.Root))
	}
}

func TestStreamEquivalence(t *testing.T) {
	for name, src := range wellFormed {
		t.Run(name, func(t *testing.T) {
			checkStreamEquiv(t, src, xmlkit.ParseOptions{})
			checkStreamEquiv(t, src, xmlkit.ParseOptions{KeepWhitespace: true})
		})
	}
}

// TestStreamEquivalenceLarge drives the chunked refill paths: a document
// bigger than several read chunks with tags likely to straddle chunk
// boundaries.
func TestStreamEquivalenceLarge(t *testing.T) {
	var b strings.Builder
	b.WriteString("<root>")
	for i := 0; i < 4000; i++ {
		fmt.Fprintf(&b, `<item id="%d" cls="odd&amp;even">value %d with some padding text</item>`, i, i)
	}
	b.WriteString("</root>")
	checkStreamEquiv(t, b.String(), xmlkit.ParseOptions{})
}

// normalize merges adjacent text children and drops empty ones, in
// place: the two differences serializing a tree may make.
func normalize(n *xmlkit.Node) *xmlkit.Node {
	var out []*xmlkit.Node
	for _, c := range n.Children {
		switch {
		case !c.IsText():
			out = append(out, normalize(c))
		case c.Text == "":
		case len(out) > 0 && out[len(out)-1].IsText():
			out[len(out)-1].Text += c.Text
		default:
			out = append(out, c)
		}
	}
	n.Children = out
	return n
}

// FuzzParse: on any input Parse returns, without panicking, either a
// *SyntaxError or a tree; the tree is the same whether the input
// arrives whole or a byte at a time, and serializing it and parsing the
// markup again (keeping whitespace) gives it back.
func FuzzParse(f *testing.F) {
	for _, src := range wellFormed {
		f.Add(src)
	}
	f.Add("\xef\xbb\xbf<a>byte-order mark</a>")
	f.Add(xmlkit.SerializeString(corpus.GeneratePlay(corpus.SmallSpec(1), 0)))
	f.Fuzz(func(t *testing.T, src string) {
		for _, ws := range []bool{false, true} {
			opts := xmlkit.ParseOptions{KeepWhitespace: ws}
			doc, err := xmlkit.ParseString(src, opts)
			slow, slowErr := xmlkit.Parse(iotest.OneByteReader(strings.NewReader(src)), opts)
			if (err == nil) != (slowErr == nil) {
				t.Fatalf("whole input: %v; a byte at a time: %v", err, slowErr)
			}
			if err != nil {
				var se *xmlkit.SyntaxError
				if !errors.As(err, &se) || !errors.As(slowErr, &se) {
					t.Fatalf("rejected with %T / %T, want *SyntaxError", err, slowErr)
				}
				continue
			}
			if !xmlkit.Equal(doc.Root, slow.Root) {
				t.Fatalf("trees differ: whole input %s, a byte at a time %s",
					xmlkit.SerializeString(doc.Root), xmlkit.SerializeString(slow.Root))
			}
			out := xmlkit.SerializeString(doc.Root)
			again, err := xmlkit.ParseString(out, xmlkit.ParseOptions{KeepWhitespace: true})
			if err != nil {
				t.Fatalf("serialized tree does not parse: %v\n%s", err, out)
			}
			if !xmlkit.Equal(normalize(doc.Root), again.Root) {
				t.Fatalf("round trip changed the tree:\n%s\n%s", out, xmlkit.SerializeString(again.Root))
			}
		}
	})
}
