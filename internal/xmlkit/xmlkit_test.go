package xmlkit

import (
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

const speech = `<SPEECH>
<SPEAKER>OTHELLO</SPEAKER>
<LINE>Let me see your eyes;</LINE>
<LINE>Look in my face.</LINE>
</SPEECH>`

// TestStreamSpeech: with KeepWhitespace the parser yields every element
// and every character-data token of the figure 2 speech, in order.
func TestStreamSpeech(t *testing.T) {
	p := NewStreamParser(strings.NewReader(speech), ParseOptions{KeepWhitespace: true})
	var kinds []EventKind
	var names []string
	for {
		ev, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, ev.Kind)
		names = append(names, ev.Name)
	}
	want := []EventKind{
		EventStart, EventText, EventStart, EventText, EventEnd,
		EventText, EventStart, EventText, EventEnd, EventText,
		EventStart, EventText, EventEnd, EventText, EventEnd,
	}
	if len(kinds) != len(want) {
		t.Fatalf("got %d events %v, want %d", len(kinds), kinds, len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %v (%q), want %v", i, kinds[i], names[i], want[i])
		}
	}
}

func TestParseSpeechTree(t *testing.T) {
	doc, err := ParseString(speech, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	root := doc.Root
	if root.Name != "SPEECH" || len(root.Children) != 3 {
		t.Fatalf("root = %s with %d children", root.Name, len(root.Children))
	}
	if root.Children[0].Name != "SPEAKER" {
		t.Fatalf("first child = %q", root.Children[0].Name)
	}
	if got := root.Children[0].TextContent(); got != "OTHELLO" {
		t.Fatalf("speaker text = %q", got)
	}
	if got := root.Children[2].TextContent(); got != "Look in my face." {
		t.Fatalf("line 2 text = %q", got)
	}
	// The paper's figure 2 tree: 7 logical nodes (SPEECH, SPEAKER, text,
	// LINE, text, LINE, text).
	if got := root.CountNodes(); got != 7 {
		t.Fatalf("CountNodes = %d, want 7", got)
	}
}

func TestAttributesAndEmptyTags(t *testing.T) {
	doc, err := ParseString(`<PLAY id="othello" year='1604'><EMPTY a="1"/><ACT/></PLAY>`, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	root := doc.Root
	if v, ok := root.Attr("id"); !ok || v != "othello" {
		t.Fatalf("id = %q, %v", v, ok)
	}
	if v, ok := root.Attr("year"); !ok || v != "1604" {
		t.Fatalf("year = %q, %v", v, ok)
	}
	if _, ok := root.Attr("missing"); ok {
		t.Fatal("found missing attribute")
	}
	if len(root.Children) != 2 || root.Children[0].Name != "EMPTY" || root.Children[1].Name != "ACT" {
		t.Fatalf("children wrong: %+v", root.Children)
	}
	if v, _ := root.Children[0].Attr("a"); v != "1" {
		t.Fatal("empty-tag attribute lost")
	}
}

func TestEntities(t *testing.T) {
	doc, err := ParseString(`<a b="&lt;x&gt;">Tom &amp; Jerry &#65;&#x42; &apos;q&quot;</a>`, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := doc.Root.Attr("b"); v != "<x>" {
		t.Fatalf("attr = %q", v)
	}
	if got := doc.Root.TextContent(); got != `Tom & Jerry AB 'q"` {
		t.Fatalf("text = %q", got)
	}
}

func TestBadEntity(t *testing.T) {
	if _, err := ParseString(`<a>fish &chips;</a>`, ParseOptions{}); err == nil {
		t.Fatal("undefined entity accepted")
	}
	if _, err := ParseString(`<a>AT&T</a>`, ParseOptions{}); err == nil {
		t.Fatal("bare ampersand accepted")
	}
}

func TestCDataAndComments(t *testing.T) {
	doc, err := ParseString(`<a><!-- ignore <b> --><![CDATA[<raw> & text]]></a>`, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Root.TextContent(); got != "<raw> & text" {
		t.Fatalf("text = %q", got)
	}
	if len(doc.Root.Children) != 1 {
		t.Fatalf("comment produced a node: %d children", len(doc.Root.Children))
	}
}

// TestDoctypeNameAndBody: the DOCTYPE's name and its whole body, internal
// subset included, reach the Document (schema.ParseDTD reads the body).
func TestDoctypeNameAndBody(t *testing.T) {
	subset := `[
  <!ELEMENT PLAY (TITLE, ACT+)>
  <!ELEMENT TITLE (#PCDATA)>
  <!ELEMENT ACT (SCENE+)>
  <!ATTLIST ACT n CDATA #IMPLIED>
  <!ELEMENT SCENE (SPEECH+)>
]`
	src := "<?xml version=\"1.0\"?>\n<!DOCTYPE PLAY " + subset + ">\n" +
		`<PLAY><TITLE>x</TITLE><ACT><SCENE><SPEECH/></SCENE></ACT></PLAY>`
	doc, err := ParseString(src, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if doc.DoctypeName != "PLAY" {
		t.Fatalf("doctype = %q", doc.DoctypeName)
	}
	if want := "PLAY " + subset; doc.DoctypeRaw != want {
		t.Fatalf("doctype body = %q, want %q", doc.DoctypeRaw, want)
	}
}

func TestMalformedDocuments(t *testing.T) {
	bad := []string{
		``,
		`plain text`,
		`<a>`,
		`<a></b>`,
		`<a></a><b></b>`,
		`<a><b></a></b>`,
		`<1tag/>`,
		`<a attr></a>`,
		`<a attr=novalue></a>`,
		`<a attr="unterminated></a>`,
		`<a><!-- unterminated`,
		`<a><![CDATA[ unterminated</a>`,
		`<!DOCTYPE unterminated [ <a/>`,
	}
	for _, src := range bad {
		if _, err := ParseString(src, ParseOptions{}); err == nil {
			t.Errorf("accepted malformed input %q", src)
		}
	}
}

func TestWhitespaceHandling(t *testing.T) {
	src := "<a>\n  <b>x</b>\n</a>"
	doc, _ := ParseString(src, ParseOptions{})
	if len(doc.Root.Children) != 1 {
		t.Fatalf("default: %d children, want 1 (whitespace dropped)", len(doc.Root.Children))
	}
	doc2, _ := ParseString(src, ParseOptions{KeepWhitespace: true})
	if len(doc2.Root.Children) != 3 {
		t.Fatalf("KeepWhitespace: %d children, want 3", len(doc2.Root.Children))
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	srcs := []string{
		`<a/>`,
		`<a b="1" c="two">text</a>`,
		`<a>one<b>two</b>three</a>`,
		`<SPEECH><SPEAKER>OTHELLO</SPEAKER><LINE>Let me see your eyes;</LINE></SPEECH>`,
		`<a>5 &lt; 6 &amp; 7 &gt; 2</a>`,
		`<a q="&quot;x&quot;"/>`,
	}
	for _, src := range srcs {
		doc, err := ParseString(src, ParseOptions{KeepWhitespace: true})
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		out := SerializeString(doc.Root)
		doc2, err := ParseString(out, ParseOptions{KeepWhitespace: true})
		if err != nil {
			t.Fatalf("re-parse of %q: %v", out, err)
		}
		if !Equal(doc.Root, doc2.Root) {
			t.Fatalf("round trip changed tree: %q -> %q", src, out)
		}
	}
}

// randomTree builds a random tree for property testing.
func randomTree(rng *rand.Rand, depth int) *Node {
	if depth <= 0 || rng.Intn(3) == 0 {
		return NewText(randomText(rng))
	}
	names := []string{"alpha", "beta", "gamma", "delta"}
	n := NewElement(names[rng.Intn(len(names))])
	if rng.Intn(2) == 0 {
		n.SetAttr("k", randomText(rng))
	}
	for i := rng.Intn(4); i > 0; i-- {
		n.Append(randomTree(rng, depth-1))
	}
	return n
}

func randomText(rng *rand.Rand) string {
	chars := `abc <>&"' 	xyz;#`
	n := 1 + rng.Intn(12)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(chars[rng.Intn(len(chars))])
	}
	return b.String()
}

// TestSerializeParsePropertyRoundTrip: any tree survives
// serialize→parse, including hostile characters needing escapes.
func TestSerializeParsePropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		tree := randomTree(rng, 4)
		if tree.IsText() {
			tree = NewElement("root", tree)
		}
		// Coalesce adjacent text children: the parser merges them, which
		// is the one legitimate difference. Easiest check: serialize both
		// and compare strings after one round trip.
		out := SerializeString(tree)
		doc, err := ParseString(out, ParseOptions{KeepWhitespace: true})
		if err != nil {
			t.Fatalf("tree %d: parse back: %v\n%s", i, err, out)
		}
		out2 := SerializeString(doc.Root)
		if out != out2 {
			t.Fatalf("tree %d: unstable round trip:\n%s\n%s", i, out, out2)
		}
	}
}

func TestEscapeProperties(t *testing.T) {
	if err := quick.Check(func(s string) bool {
		dec, err := DecodeEntities(EscapeText(s))
		return err == nil && dec == s
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(s string) bool {
		dec, err := DecodeEntities(EscapeAttr(s))
		return err == nil && dec == s
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestCountNodesWithAttrs(t *testing.T) {
	doc, _ := ParseString(`<a x="1" y="2"><b/>text</a>`, ParseOptions{})
	// a + 2 attrs + b + text = 5
	if got := doc.Root.CountNodes(); got != 5 {
		t.Fatalf("CountNodes = %d, want 5", got)
	}
}

func TestPIAndXMLDecl(t *testing.T) {
	doc, err := ParseString(`<?xml version="1.0" encoding="utf-8"?><?target data?><a/>`, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Name != "a" {
		t.Fatalf("root = %q", doc.Root.Name)
	}
}

func TestTextContentNested(t *testing.T) {
	doc, _ := ParseString(`<s><sp>OTH</sp><l>Let me <i>see</i> you</l></s>`, ParseOptions{})
	if got := doc.Root.TextContent(); got != "OTHLet me see you" {
		t.Fatalf("TextContent = %q", got)
	}
}

// escapeByByte is the byte-at-a-time escape rule appendEscaped speeds up.
func escapeByByte(s string, attr bool) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '<':
			b.WriteString("&lt;")
		case c == '>':
			b.WriteString("&gt;")
		case c == '&':
			b.WriteString("&amp;")
		case c == '"' && attr:
			b.WriteString("&quot;")
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// checkEscape holds appendEscaped to escapeByByte on s, as a string and
// as a byte slice, appended behind a prefix and to nothing, and
// IsCleanText to whether escaping s as text changes it.
func checkEscape(t *testing.T, s string) {
	t.Helper()
	if clean := escapeByByte(s, false) == s; IsCleanText(s) != clean || IsCleanText([]byte(s)) != clean {
		t.Fatalf("IsCleanText(%q) = %v, want %v", s, !clean, clean)
	}
	for _, attr := range []bool{false, true} {
		want := escapeByByte(s, attr)
		if got := string(appendEscaped([]byte("x"), s, attr)); got != "x"+want {
			t.Fatalf("appendEscaped(%q, attr %v) = %q, want %q", s, attr, got[1:], want)
		}
		if got := string(appendEscaped(nil, []byte(s), attr)); got != want {
			t.Fatalf("appendEscaped([]byte %q, attr %v) = %q, want %q", s, attr, got, want)
		}
	}
}

// TestEscapeMatchesByteLoop holds the word-at-a-time escape to the
// byte-at-a-time rule, on random strings drawn mostly from the bytes
// around the markup characters — the ones clean8's bit tricks could
// confuse with them — at every length and alignment.
func TestEscapeMatchesByteLoop(t *testing.T) {
	near := []byte(`<>&"` + "\x20\x21\x23\x24\x25\x27\x2a\x2e\x38\x39\x3a\x3b\x3c\x3d\x3f\x7c\x7e\xa2\xa6\xbc\xbe\xff\x00a")
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20000; round++ {
		b := make([]byte, rng.Intn(40))
		for i := range b {
			if rng.Intn(4) == 0 {
				b[i] = byte(rng.Intn(256))
			} else {
				b[i] = near[rng.Intn(len(near))]
			}
		}
		checkEscape(t, string(b))
	}
	// Every byte value alone and at each place of an otherwise clean word
	// and tail.
	for c := 0; c < 256; c++ {
		for n := 1; n <= 17; n++ {
			for at := 0; at < n; at++ {
				b := []byte(strings.Repeat("a", n))
				b[at] = byte(c)
				checkEscape(t, string(b))
			}
		}
	}
}

// FuzzEscape holds the word-at-a-time escape to the byte-at-a-time rule
// on arbitrary input.
func FuzzEscape(f *testing.F) {
	for _, s := range []string{"", "plain text of a line", `a<b & "c" > d`, "<<<<<<<<>>>>>>>>", "12345678&", "&2345678", "\x3c\x3e\x26\x22\x3d\x3f\x27\x24"} {
		f.Add(s)
	}
	f.Fuzz(checkEscape)
}
