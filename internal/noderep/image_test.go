package noderep

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"natix/internal/dict"
)

// FuzzWalkImage feeds the in-place reader arbitrary bytes, seeded with
// FuzzDecode's seeds and the format 4 images of its checked-in corpus
// (records of corpus plays; a file Upgrade refuses is added as it is). On any input the facade walk and the
// navigation by Root and Child end, never panic, report nothing but
// ErrCorruptRecord and hand out only content inside the input, and
// ChildHas finds what a walk of the children with Child finds. When
// Decode accepts the input, both read exactly the nodes of the decoded
// tree: the walk its facade nodes in pre-order, the navigation every node
// in pre-order, each with its kind, label, literal type and payload.
func FuzzWalkImage(f *testing.F) {
	addRecordSeeds(f)
	for _, data := range corpusOf(f, "FuzzDecode") {
		if _, up, err := Upgrade(data); up != nil && err == nil {
			data = up
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := OpenImage(string(data))
		if err != nil {
			if !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("OpenImage error outside ErrCorruptRecord: %v", err)
			}
			if _, err := Decode(data); err == nil {
				t.Fatal("OpenImage refuses an image Decode accepts")
			}
			return
		}
		inside := func(n *ImageNode) {
			t.Helper()
			if n.Start < 0 || n.Start > n.End || int(n.End) > len(data) {
				t.Fatalf("content [%d, %d) outside the %d-byte image", n.Start, n.End, len(data))
			}
		}

		var facades []ImageNode
		walk := im.Facades()
		var walkErr error
		for steps := 0; ; steps++ {
			// Every facade node spends a header of input, or is the text of
			// a fused element that spends one.
			if steps > 2+len(data) {
				t.Fatalf("the facade walk of %d bytes does not end", len(data))
			}
			ok, err := walk.Advance()
			if err != nil {
				walkErr = err
				break
			}
			if !ok {
				break
			}
			var n ImageNode
			if err := walk.Node(&n); err != nil {
				t.Fatalf("Node after a successful Advance: %v", err)
			}
			inside(&n)
			facades = append(facades, n)
		}
		if walkErr != nil && !errors.Is(walkErr, ErrCorruptRecord) {
			t.Fatalf("facade walk error outside ErrCorruptRecord: %v", walkErr)
		}

		var nodes []ImageNode
		var navErr error
		var visit func(n ImageNode)
		visit = func(n ImageNode) {
			inside(&n)
			if len(nodes) > 2+len(data) {
				t.Fatalf("the navigation of %d bytes does not end", len(data))
			}
			nodes = append(nodes, n)
			if n.Kind != KindAggregate || navErr != nil {
				return
			}
			if n.Fused {
				n.ToText()
				visit(n)
				return
			}
			// ChildHas reads what Child reads of the headers, and no more.
			odd := func(k Kind, l dict.LabelID) bool { return k == KindProxy || l%2 == 1 }
			has, hasErr := im.ChildHas(int(n.Start), int(n.End), odd)
			if hasErr != nil && !errors.Is(hasErr, ErrCorruptRecord) {
				t.Fatalf("ChildHas error outside ErrCorruptRecord: %v", hasErr)
			}
			want, wantErr := false, error(nil)
			for off := int(n.Start); off < int(n.End) && !want; {
				var c ImageNode
				if wantErr = im.Child(&c, off, int(n.End)); wantErr != nil {
					break
				}
				want, off = odd(c.Kind, c.Label), int(c.End)
			}
			if wantErr == nil && (hasErr != nil || has != want) {
				t.Fatalf("ChildHas of [%d, %d) = %v, %v; the children read %v", n.Start, n.End, has, hasErr, want)
			}
			for off := int(n.Start); off < int(n.End) && navErr == nil; {
				var c ImageNode
				if navErr = im.Child(&c, off, int(n.End)); navErr != nil {
					return
				}
				if int(c.End) <= off {
					t.Fatalf("child at %d ends at %d: no progress", off, c.End)
				}
				off = int(c.End)
				visit(c)
			}
		}
		var root ImageNode
		if navErr = im.Root(&root); navErr == nil {
			visit(root)
		}
		if navErr != nil && !errors.Is(navErr, ErrCorruptRecord) {
			t.Fatalf("navigation error outside ErrCorruptRecord: %v", navErr)
		}

		rec, err := Decode(data)
		if err != nil {
			return
		}
		if walkErr != nil || navErr != nil {
			t.Fatalf("Decode accepts what the reader refuses: walk %v, navigation %v", walkErr, navErr)
		}
		var want, wantFacades []*Node
		rec.Root.Walk(func(n *Node) bool {
			want = append(want, n)
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
		same("the facade walk", facades, wantFacades)
		same("the navigation", nodes, want)
	})
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
