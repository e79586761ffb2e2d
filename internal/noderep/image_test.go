package noderep

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"natix/internal/dict"
	"natix/internal/xmlkit"
)

// FuzzWalkImage holds the node table OpenImage builds against the header
// walk it replaced (refImage), seeded with FuzzDecode's seeds and the
// format 4 images of its checked-in corpus (records of corpus plays; a
// file Upgrade refuses is added as it is). On any input OpenImage ends,
// never panics and reports nothing but ErrCorruptRecord, and it accepts
// the input exactly when the header walk reads every node of it. On an
// accepted image the table reads what the header walk reads, node for
// node in pre-order: kind, label, literal type, marks and content bounds,
// each node's children and what ChildHas finds among them, and the facade
// order. A node's clean bit is set exactly when escaping its text changes
// nothing. When Decode accepts the input too, the table reads exactly the
// nodes of the decoded tree: its facade nodes in facade order, and every
// node in pre-order, each with its kind, label, literal type and payload.
func FuzzWalkImage(f *testing.F) {
	addRecordSeeds(f)
	for _, data := range corpusOf(f, "FuzzDecode") {
		if rec, old, err := Upgrade(data); old && err == nil {
			rec.Root.Walk(func(n *Node) bool {
				n.Count = 1
				return true
			})
			if up, err := Encode(rec); err == nil {
				data = up
			}
		}
		f.Add(data)
	}
	odd := func(k Kind, l dict.LabelID) bool { return k == KindProxy || l%2 == 1 }
	f.Fuzz(func(t *testing.T, data []byte) {
		want, kids, has, refErr := refNavigate(string(data), odd)
		im, err := OpenImage(string(data))
		if err != nil && !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("OpenImage error outside ErrCorruptRecord: %v", err)
		}
		if accept := refErr == nil && len(data) <= maxImageSize; (err == nil) != accept {
			t.Fatalf("OpenImage: %v; the header walk of %d bytes: %v", err, len(data), refErr)
		}
		if err != nil {
			if _, err := Decode(data); err == nil && len(data) <= maxImageSize {
				t.Fatal("OpenImage refuses an image Decode accepts")
			}
			return
		}

		if im.nodes != len(want) {
			t.Fatalf("the table holds %d nodes, the header walk reads %d", im.nodes, len(want))
		}
		var nodes []ImageNode // the table's, fused elements followed by their text
		for i := range want {
			var g ImageNode
			im.Node(&g, i)
			w := want[i]
			if g.Start != w.Start || g.End != w.End || g.Kind != w.Kind || g.Label != w.Label ||
				g.LitType != w.LitType || g.Scaffold != w.Scaffold || g.Fused != w.Fused || g.Index != int32(i) {
				t.Fatalf("node %d: the table reads %+v, the header walk %+v", i, g, w)
			}
			var got []int
			if g.Kind == KindAggregate && !g.Fused && g.Start < g.End {
				for c := i + 1; c < int(g.Next); {
					got = append(got, c)
					var cn ImageNode
					im.Node(&cn, c)
					if int(cn.Next) <= c || cn.Next > g.Next {
						t.Fatalf("node %d: child %d steps to %d", i, c, cn.Next)
					}
					c = int(cn.Next)
				}
			} else if int(g.Next) != i+1 {
				t.Fatalf("node %d has no children, and its subtree ends at %d", i, g.Next)
			}
			if !slices.Equal(got, kids[i]) {
				t.Fatalf("node %d: the table's children %v, the header walk's %v", i, got, kids[i])
			}
			if g.Kind == KindAggregate && !g.Fused && im.ChildHas(&g, odd) != has[i] {
				t.Fatalf("node %d: ChildHas = %v, the header walk's %v", i, !has[i], has[i])
			}
			text := g.Kind == KindLiteral || g.Fused
			if payload := im.Payload(&g); g.Clean != (text && string(xmlkit.AppendEscapedText(nil, payload)) == payload) {
				t.Fatalf("node %d: clean bit %v on %s %q", i, g.Clean, g.Kind, payload)
			}
			nodes = append(nodes, g)
			if g.Fused {
				g.ToText()
				nodes = append(nodes, g)
			}
		}

		ref, _ := refOpenImage(string(data))
		walk := ref.Facades()
		var facades []ImageNode
		for idx := 0; ; idx++ {
			ok, err := walk.Advance()
			if err != nil {
				t.Fatalf("the header walk reads every node, and its facade walk fails: %v", err)
			}
			var g ImageNode
			if got := im.Facade(&g, idx); got != ok {
				t.Fatalf("facade %d: the table has it %v, the header walk %v", idx, got, ok)
			}
			if !ok {
				break
			}
			var w ImageNode
			if err := walk.Node(&w); err != nil {
				t.Fatalf("Node after a successful Advance: %v", err)
			}
			if g.Start != w.Start || g.End != w.End || g.Kind != w.Kind || g.Label != w.Label ||
				g.LitType != w.LitType || g.Scaffold != w.Scaffold || g.Fused != w.Fused {
				t.Fatalf("facade %d: the table reads %+v, the header walk %+v", idx, g, w)
			}
			facades = append(facades, g)
		}
		if im.facades() != len(facades) || im.Facade(new(ImageNode), -1) {
			t.Fatalf("the table counts %d facades, the header walk %d", im.facades(), len(facades))
		}

		rec, err := Decode(data)
		if err != nil {
			return
		}
		var wantNodes, wantFacades []*Node
		rec.Root.Walk(func(n *Node) bool {
			wantNodes = append(wantNodes, n)
			if n.Kind == KindLiteral || n.Kind == KindAggregate && !n.Scaffold {
				wantFacades = append(wantFacades, n)
			}
			return true
		})
		same := func(what string, got []ImageNode, want []*Node) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s reads %d nodes, Decode %d", what, len(got), len(want))
			}
			for i, n := range want {
				g := &got[i]
				payload := im.Payload(g)
				if g.Kind == KindAggregate {
					payload = "" // an aggregate's content is its children
				}
				if g.Kind == KindProxy {
					target, err := im.Target(g)
					if err != nil || target != n.Target {
						t.Fatalf("%s: node %d is a proxy to %s (%v), Decode's to %s", what, i, target, err, n.Target)
					}
					payload = ""
				}
				if g.Kind != n.Kind || g.Label != n.Label || g.LitType != n.LitType || g.Scaffold != n.Scaffold || payload != string(n.Payload) {
					t.Fatalf("%s: node %d is %s %d/%d %q, Decode's %s %d/%d %q", what, i,
						g.Kind, g.Label, g.LitType, payload, n.Kind, n.Label, n.LitType, n.Payload)
				}
			}
		}
		same("the facade order", facades, wantFacades)
		same("the table", nodes, wantNodes)
	})
}

// facades returns the number of facade nodes in the image's table.
func (im *Image) facades() int { return len(im.table) - im.nodes*entryWords }

// refNavigate reads every node of buf with the header walk, from the
// root down by Child, and returns them in pre-order, the indexes of each
// node's children, and for each aggregate what the walk's ChildHas finds
// among its children with pred. The error is the first the walk meets.
func refNavigate(buf string, pred func(Kind, dict.LabelID) bool) (nodes []ImageNode, kids [][]int, has []bool, err error) {
	im, err := refOpenImage(buf)
	if err != nil {
		return nil, nil, nil, err
	}
	var visit func(n ImageNode) error
	visit = func(n ImageNode) error {
		if n.Start < 0 || n.Start > n.End || int(n.End) > len(buf) {
			return fmt.Errorf("content [%d, %d) outside the %d-byte image", n.Start, n.End, len(buf))
		}
		i := len(nodes)
		nodes, kids, has = append(nodes, n), append(kids, nil), append(has, false)
		if n.Kind != KindAggregate || n.Fused {
			return nil
		}
		h, err := im.ChildHas(int(n.Start), int(n.End), pred)
		if err != nil {
			return err
		}
		has[i] = h
		for off := int(n.Start); off < int(n.End); {
			var c ImageNode
			if err := im.Child(&c, off, int(n.End)); err != nil {
				return err
			}
			if int(c.End) <= off {
				return fmt.Errorf("child at %d ends at %d: no progress", off, c.End)
			}
			off = int(c.End)
			kids[i] = append(kids[i], len(nodes))
			if err := visit(c); err != nil {
				return err
			}
		}
		return nil
	}
	var root ImageNode
	if err = im.Root(&root); err == nil {
		err = visit(root)
	}
	return nodes, kids, has, err
}

// corpusOf reads the checked-in corpus of the named fuzz target: the
// []byte value of every file under testdata/fuzz/<name>.
func corpusOf(tb testing.TB, name string) [][]byte {
	tb.Helper()
	dir := filepath.Join("testdata", "fuzz", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
			!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			tb.Fatalf("%s: not a one-value []byte corpus file", e.Name())
		}
		v, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			tb.Fatalf("%s: %v", e.Name(), err)
		}
		out = append(out, []byte(v))
	}
	if len(out) == 0 {
		tb.Fatalf("no corpus under %s", dir)
	}
	return out
}
