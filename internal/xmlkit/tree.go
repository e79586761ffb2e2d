package xmlkit

import (
	"io"
	"strings"
)

// Node is one node of the logical document tree (paper §2.2): an ordered
// tree whose inner nodes carry element labels and whose leaves may carry
// text. Attributes are kept on the element; the physical layer decides
// how to materialize them.
type Node struct {
	Name     string  // element name; empty for text nodes
	Text     string  // character data (text nodes only)
	Attrs    []Attr  // attributes (element nodes only)
	Children []*Node // child nodes in document order (element nodes only)
}

// IsText reports whether n is a text node.
func (n *Node) IsText() bool { return n.Name == "" }

// NewElement builds an element node.
func NewElement(name string, children ...*Node) *Node {
	return &Node{Name: name, Children: children}
}

// NewText builds a text node.
func NewText(text string) *Node { return &Node{Text: text} }

// Append adds children and returns n for chaining.
func (n *Node) Append(children ...*Node) *Node {
	n.Children = append(n.Children, children...)
	return n
}

// SetAttr adds or replaces an attribute and returns n for chaining.
func (n *Node) SetAttr(name, value string) *Node {
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs[i].Value = value
			return n
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
	return n
}

// Attr returns the value of the named attribute, if present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// CountNodes returns the number of nodes in the subtree, counting n, all
// descendants, and one node per attribute (matching the paper's "tree
// representations contain about 320000 nodes" accounting where attributes
// are nodes too).
func (n *Node) CountNodes() int {
	total := 1 + len(n.Attrs)
	for _, c := range n.Children {
		total += c.CountNodes()
	}
	return total
}

// TextContent concatenates all descendant text in document order.
func (n *Node) TextContent() string {
	var b strings.Builder
	n.appendText(&b)
	return b.String()
}

func (n *Node) appendText(b *strings.Builder) {
	if n.IsText() {
		b.WriteString(n.Text)
		return
	}
	for _, c := range n.Children {
		c.appendText(b)
	}
}

// Equal reports deep structural equality of two subtrees.
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Name != b.Name || a.Text != b.Text ||
		len(a.Attrs) != len(b.Attrs) || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return false
		}
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// Document is a parsed XML document.
type Document struct {
	Root        *Node
	DoctypeName string
	// DoctypeRaw is the full DOCTYPE body (name plus internal subset),
	// for consumers that parse content models (package schema).
	DoctypeRaw string
}

// ParseOptions control tree construction.
type ParseOptions struct {
	// KeepWhitespace retains text nodes consisting solely of whitespace.
	// The default drops them, matching the paper's node accounting.
	KeepWhitespace bool
}

// Parse reads an XML document from r into a tree, built from the events
// of a StreamParser: each character-data token becomes one text node,
// its Cont chunks joined again.
func Parse(r io.Reader, opts ParseOptions) (*Document, error) {
	p := NewStreamParser(r, opts)
	doc := &Document{}
	var stack []*Node
	var last *Node          // the text node of the latest token
	var run strings.Builder // last's text, once a Cont chunk has followed
	for {
		ev, err := p.Next()
		if run.Len() > 0 && (err != nil || ev.Kind != EventText || !ev.Cont) {
			last.Text = run.String()
			run.Reset()
		}
		if err == io.EOF {
			doc.DoctypeName, doc.DoctypeRaw = p.doctypeName, p.doctypeRaw
			return doc, nil
		}
		if err != nil {
			return nil, err
		}
		switch ev.Kind {
		case EventStart:
			n := &Node{Name: ev.Name, Attrs: ev.Attrs}
			if len(stack) == 0 {
				doc.Root = n
			} else {
				top := stack[len(stack)-1]
				top.Children = append(top.Children, n)
			}
			stack = append(stack, n)
		case EventEnd:
			stack = stack[:len(stack)-1]
		case EventText:
			if ev.Cont {
				if run.Len() == 0 {
					run.WriteString(last.Text)
				}
				run.WriteString(ev.Text)
				continue
			}
			last = NewText(ev.Text)
			top := stack[len(stack)-1]
			top.Children = append(top.Children, last)
		}
	}
}

// ParseString parses a document held in a string.
func ParseString(src string, opts ParseOptions) (*Document, error) {
	return Parse(strings.NewReader(src), opts)
}
