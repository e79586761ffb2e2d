package natix

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"natix/internal/corpus"
	"natix/internal/xmlkit"
)

// Every entry point reads XML with the one stream parser, so the tree
// route, the flat route and validation accept and reject the same
// documents.

// malformedDocs are rejected by every entry point.
var malformedDocs = map[string]string{
	"empty":             ``,
	"plainText":         `plain text`,
	"unclosed":          `<a>`,
	"wrongClose":        `<a></b>`,
	"twoRoots":          `<a></a><b></b>`,
	"twoEmptyRoots":     `<a/><b/>`,
	"mismatchedClose":   `<a><b></a></b>`,
	"digitName":         `<1tag/>`,
	"attrNoValue":       `<a attr></a>`,
	"attrUnquoted":      `<a attr=novalue></a>`,
	"attrUnterminated":  `<a attr="unterminated></a>`,
	"unterComment":      `<a><!-- unterminated`,
	"unterCDATA":        `<a><![CDATA[ unterminated</a>`,
	"unterDoctype":      `<!DOCTYPE unterminated [ <a/>`,
	"badEntity":         `<a>fish &chips;</a>`,
	"bareAmpersand":     `<a>AT&T</a>`,
	"textBeforeRoot":    `junk<a/>`,
	"textAfterRoot":     `<a/>junk`,
	"unterCommentAfter": `<a/><!-- trailing`,
}

// wellFormedDocs are accepted by every entry point (the stream parser
// test's equivalence cases).
var wellFormedDocs = map[string]string{
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

// validateParse is ValidateXML reduced to its parse: a well-formed
// document without a DOCTYPE is accepted (ErrNoDTD), and violations of
// a DTD are validity, not well-formedness.
func validateParse(src string) error {
	_, err := ValidateXML(strings.NewReader(src))
	if errors.Is(err, ErrNoDTD) {
		return nil
	}
	return err
}

func TestEntryPointsAgreeOnWellFormedness(t *testing.T) {
	db, err := Open(Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ImportXML("keep", strings.NewReader(othello)); err != nil {
		t.Fatal(err)
	}
	before, err := db.Documents()
	if err != nil {
		t.Fatal(err)
	}
	routes := []struct {
		name  string
		run   func(src string) error
		added []string // documents an accepting run adds
	}{
		{"ImportXML", func(src string) error {
			return db.ImportXML("doc", strings.NewReader(src))
		}, []string{"doc"}},
		{"ImportXMLBatch", func(src string) error {
			return db.ImportXMLBatch(context.Background(), []ImportDoc{
				{Name: "healthy", R: strings.NewReader(othello)},
				{Name: "doc", R: strings.NewReader(src)},
			})
		}, []string{"healthy", "doc"}},
		{"ImportXMLFlat", func(src string) error {
			return db.ImportXMLFlat("doc", strings.NewReader(src))
		}, []string{"doc"}},
		{"ValidateXML", validateParse, nil},
	}
	for name, src := range malformedDocs {
		for _, r := range routes {
			err := r.run(src)
			var se *xmlkit.SyntaxError
			if !errors.As(err, &se) {
				t.Errorf("%s: %s accepted %q or failed without a syntax error: %v", name, r.name, src, err)
			}
			if after, err := db.Documents(); err != nil || !reflect.DeepEqual(after, before) {
				t.Fatalf("%s: %s left the catalog %v (was %v), %v", name, r.name, after, before, err)
			}
		}
	}
	for name, src := range wellFormedDocs {
		for _, r := range routes {
			if err := r.run(src); err != nil {
				t.Errorf("%s: %s rejected %q: %v", name, r.name, src, err)
				continue
			}
			for _, doc := range r.added {
				if err := db.Delete(doc); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestByteOrderMarkAcceptedEverywhere: a play behind a UTF-8 byte-order
// mark goes in through every route, and every tree-mode copy exports the
// play's markup, mark dropped.
func TestByteOrderMarkAcceptedEverywhere(t *testing.T) {
	const bom = "\xef\xbb\xbf"
	play := xmlkit.SerializeString(corpus.GeneratePlay(corpus.SmallSpec(1), 0))
	src := bom + play
	db, err := Open(Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ImportXML("xml", strings.NewReader(src)); err != nil {
		t.Fatalf("ImportXML: %v", err)
	}
	if err := db.ImportXMLBatch(context.Background(), []ImportDoc{{Name: "batch", R: strings.NewReader(src)}}); err != nil {
		t.Fatalf("ImportXMLBatch: %v", err)
	}
	if err := db.ImportXMLFlat("flat", strings.NewReader(src)); err != nil {
		t.Fatalf("ImportXMLFlat: %v", err)
	}
	if err := db.Convert("flat", false); err != nil {
		t.Fatalf("Convert to tree: %v", err)
	}
	if err := validateParse(src); err != nil {
		t.Fatalf("ValidateXML: %v", err)
	}
	valid := bom + `<!DOCTYPE PLAY [<!ELEMENT PLAY (TITLE)> <!ELEMENT TITLE (#PCDATA)>]><PLAY><TITLE>t</TITLE></PLAY>`
	if msgs, err := ValidateXML(strings.NewReader(valid)); err != nil || msgs != nil {
		t.Fatalf("ValidateXML with a DTD: %v, %v", msgs, err)
	}
	for _, name := range []string{"xml", "batch", "flat"} {
		var out strings.Builder
		if err := db.ExportXML(name, &out); err != nil {
			t.Fatal(err)
		}
		if out.String() != play {
			t.Errorf("%s: export differs from the play (%d bytes, want %d)", name, out.Len(), len(play))
		}
	}
}
