package docstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"natix/internal/core"
	"natix/internal/corpus"
	"natix/internal/dict"
	"natix/internal/noderep"
	"natix/internal/xmlkit"
)

// The recursive evaluator the machine replaced, as it ran flat-mode
// queries — kept as the reference TestEvaluatorsAgreeWithReference holds
// every source and every consumer to. Moved verbatim from query.go but
// for one clause of xmlMatches: "*" passes over "@name" nodes, which is
// a no-op on every tree the function ever saw (no parsed element is
// named "@..."; flat-mode attributes are not nodes) and lets the same
// evaluator run over the shape tree-mode documents are stored in, where
// an attribute is an "@name" aggregate that "*" does not select.

// errStepDone signals that a positional predicate selected its match
// and the step should stop enumerating the current context node. It is
// converted to a normal return inside the step evaluators.
var errStepDone = errors.New("docstore: step done")

// xmlStep is scanStep over a parsed XML tree (flat mode): same step
// semantics, same order, no storage I/O. The context is still honored
// so a cancelled flat query stops mid-tree.
func xmlStep(cx context.Context, n *xmlkit.Node, isRoot bool, steps []Step, emit func(*xmlkit.Node) error) error {
	if len(steps) == 0 {
		return emit(n)
	}
	st := steps[0]
	count := 0
	sink := func(m *xmlkit.Node) error {
		count++
		if st.Pos == 0 {
			return xmlStep(cx, m, false, steps[1:], emit)
		}
		if count < st.Pos {
			return nil
		}
		if err := xmlStep(cx, m, false, steps[1:], emit); err != nil {
			return err
		}
		return errStepDone
	}
	var err error
	switch {
	case st.Descendant:
		if isRoot && xmlMatches(n, st.Name) {
			err = sink(n)
		}
		if err == nil {
			err = walkXMLDescendants(cx, n, st.Name, sink)
		}
	case isRoot:
		if xmlMatches(n, st.Name) {
			err = sink(n)
		}
	default:
		if err = ctxErr(cx); err != nil {
			break
		}
		for _, c := range n.Children {
			if xmlMatches(c, st.Name) {
				if err = sink(c); err != nil {
					break
				}
			}
		}
	}
	if errors.Is(err, errStepDone) {
		return nil
	}
	return err
}

func walkXMLDescendants(cx context.Context, n *xmlkit.Node, name string, sink func(*xmlkit.Node) error) error {
	if err := ctxErr(cx); err != nil {
		return err
	}
	for _, c := range n.Children {
		if xmlMatches(c, name) {
			if err := sink(c); err != nil {
				return err
			}
		}
		if err := walkXMLDescendants(cx, c, name, sink); err != nil {
			return err
		}
	}
	return nil
}

func xmlMatches(n *xmlkit.Node, name string) bool {
	if n.IsText() {
		return name == "#text"
	}
	return name == "*" && !strings.HasPrefix(n.Name, AttrPrefix) || n.Name == name
}

// The read-out the streaming writer replaced — materialize the stored
// subtree as an xmlkit tree, then serialize the copy — kept as the
// reference the differential tests hold Markup, ExportXML and Text to.

// refXMLFromRef materializes the logical subtree at ref as an XML tree,
// folding "@name" aggregates back into attributes.
func refXMLFromRef(s *Store, ref core.NodeRef) (*xmlkit.Node, error) {
	if ref.IsLiteral() {
		v, err := ref.StringValue()
		if err != nil {
			return nil, err
		}
		return xmlkit.NewText(v), nil
	}
	name, err := s.dict.Name(ref.Label())
	if err != nil {
		return nil, err
	}
	out := xmlkit.NewElement(name)
	kids, err := s.trees.Children(ref)
	if err != nil {
		return nil, err
	}
	for _, k := range kids {
		if !k.IsLiteral() {
			kname, err := s.dict.Name(k.Label())
			if err != nil {
				return nil, err
			}
			if strings.HasPrefix(kname, AttrPrefix) {
				val, err := refTextContent(s, k)
				if err != nil {
					return nil, err
				}
				out.SetAttr(strings.TrimPrefix(kname, AttrPrefix), val)
				continue
			}
		}
		child, err := refXMLFromRef(s, k)
		if err != nil {
			return nil, err
		}
		out.Append(child)
	}
	return out, nil
}

// refMarkup is the old Result.Markup / ExportXML body.
func refMarkup(s *Store, ref core.NodeRef) (string, error) {
	xn, err := refXMLFromRef(s, ref)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	err = xmlkit.Serialize(&b, xn)
	return b.String(), err
}

// refTextContent is the old core.TextContent.
func refTextContent(s *Store, ref core.NodeRef) (string, error) {
	if ref.IsLiteral() {
		v, err := ref.StringValue()
		if err != nil {
			return "", nil // non-string literal contributes nothing
		}
		return v, nil
	}
	kids, err := s.trees.Children(ref)
	if err != nil {
		return "", err
	}
	var out []byte
	for _, k := range kids {
		part, err := refTextContent(s, k)
		if err != nil {
			return "", err
		}
		out = append(out, part...)
	}
	return string(out), nil
}

// genStored builds a seeded random document in its *stored* shape: an
// xmlkit tree without Attrs in which attributes are "@name" elements, so
// the generator can put them where an import never would — after
// content, repeated under one parent, empty, with several text children.
// Text and attribute values carry the characters both escapes rewrite.
func genStored(rng *rand.Rand, items int) *xmlkit.Node {
	names := []string{"DOC", "DIV", "P", "EM", "NOTE"}
	attrs := []string{"@id", "@class", "@n"}
	words := []string{"plain", "a<b", "x>y", "Tom & Jerry", `say "hi"`, "", "longer run of words to fill records"}
	text := func() *xmlkit.Node {
		return xmlkit.NewText(words[rng.Intn(len(words))] + words[rng.Intn(len(words))])
	}
	attr := func() *xmlkit.Node {
		a := xmlkit.NewElement(attrs[rng.Intn(len(attrs))])
		for i := rng.Intn(3); i > 0; i-- { // 0, 1 or 2 text children
			a.Append(text())
		}
		return a
	}
	var gen func(depth int) *xmlkit.Node
	gen = func(depth int) *xmlkit.Node {
		n := xmlkit.NewElement(names[rng.Intn(len(names))])
		for i := rng.Intn(3); i > 0; i-- { // leading attributes, repeats allowed
			n.Append(attr())
		}
		switch shape := rng.Intn(10); {
		case shape == 0: // empty, or attribute-only
		case shape == 1:
			n.Append(xmlkit.NewText("")) // <a></a>, not <a/>
		case shape < 5 || depth >= 5:
			n.Append(text())
		default:
			for i := 1 + rng.Intn(4); i > 0; i-- {
				if rng.Intn(3) == 0 {
					n.Append(text())
				} else {
					n.Append(gen(depth + 1))
				}
			}
		}
		if rng.Intn(6) == 0 {
			n.Append(attr()) // an attribute after content
		}
		return n
	}
	root := xmlkit.NewElement("ROOT")
	for i := 0; i < items; i++ {
		root.Append(gen(1))
	}
	return root
}

// storeBulk stores a genStored model through the bulk builder.
func storeBulk(t testing.TB, s *Store, name string, model *xmlkit.Node) {
	t.Helper()
	b := s.trees.NewBulkBuilder(core.BulkOptions{})
	var walk func(n *xmlkit.Node)
	walk = func(n *xmlkit.Node) {
		if n.IsText() {
			if err := b.Leaf(noderep.NewTextLiteral(n.Text)); err != nil {
				t.Fatal(err)
			}
			return
		}
		label, err := s.labelFor(n.Name)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Open(noderep.NewAggregate(label)); err != nil {
			t.Fatal(err)
		}
		for _, c := range n.Children {
			walk(c)
		}
		if _, err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
	walk(model)
	rid, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterTree(name, s.trees.OpenTree(rid)); err != nil {
		t.Fatal(err)
	}
}

// storeBFS stores a genStored model node by node in the paper's
// incremental order (§4.3), so records split as the document grows.
func storeBFS(t testing.TB, s *Store, name string, model *xmlkit.Node) {
	t.Helper()
	label, err := s.labelFor(model.Name)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := s.trees.CreateTree(label)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range corpus.BinaryBFSOps(model) {
		n := noderep.NewTextLiteral(op.Text)
		if !op.IsText {
			if label, err = s.labelFor(op.Name); err != nil {
				t.Fatal(err)
			}
			n = noderep.NewAggregate(label)
		}
		if err := tree.InsertChild(core.Path(op.ParentPath), op.Index, n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.RegisterTree(name, tree); err != nil {
		t.Fatal(err)
	}
}

// splitExtremes are the two split-matrix settings the differential
// tests store their documents under: everything clustered, and every
// node a record of its own.
var splitExtremes = []struct {
	name   string
	matrix func() *core.SplitMatrix
}{{"other", core.AllOther}, {"standalone", core.AllStandalone}}

// storedVariants stores model at 2 KB pages bulk-loaded and BFS-built
// under both split-matrix extremes, and hands each store to fn.
func storedVariants(t *testing.T, model *xmlkit.Node, fn func(t *testing.T, s *Store)) {
	for _, m := range splitExtremes {
		for _, b := range []struct {
			name  string
			store func(testing.TB, *Store, string, *xmlkit.Node)
		}{{"bulk", storeBulk}, {"bfs", storeBFS}} {
			t.Run(b.name+"/"+m.name, func(t *testing.T) {
				s, _ := newDocStore(t, 2048, core.Config{Matrix: m.matrix(), CacheRecords: 4096})
				b.store(t, s, "d", model)
				fn(t, s)
			})
		}
	}
}

// TestReadOutMatchesReference holds the streaming writer to the
// materialize-then-serialize reference, byte for byte: the whole
// document through ExportXML, and Markup and Text of every stored node.
func TestReadOutMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		model := genStored(rand.New(rand.NewSource(seed)), 400)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			storedVariants(t, model, func(t *testing.T, s *Store) {
				r := readOutAgrees(t, s)
				if len(r.export) < 3*exportChunk/2 {
					t.Fatalf("document is %d bytes: too small to cross a chunk", len(r.export))
				}
				// The generator must actually have produced the hard cases.
				if r.nodes < 500 || r.attrOnly == 0 || r.reordered == 0 {
					t.Fatalf("weak document: %d nodes, %d attribute-only elements, %d attributes after content", r.nodes, r.attrOnly, r.reordered)
				}
				if s.trees.Config().Matrix.Default() == core.PolicyStandalone && r.proxied == 0 {
					t.Fatal("no attribute is read from behind a proxy")
				}
			})
		})
	}
}

// readOutCase is what readOutAgrees met: the export, the stored nodes, the
// elements with only attributes, the attributes after content and the
// attributes stored in another record than their element.
type readOutCase struct {
	export                              string
	nodes, attrOnly, reordered, proxied int
}

// readOutAgrees holds the read-out of the document "d" to the reference:
// ExportXML, and Markup and Text of every stored node.
func readOutAgrees(t *testing.T, s *Store) readOutCase {
	t.Helper()
	root := mustRootRef(t, s, "d")
	want, err := refMarkup(s, root)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := s.ExportXML("d", &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want {
		t.Fatalf("ExportXML differs from the reference\n got: %.300s\nwant: %.300s", got.String(), want)
	}
	r := readOutCase{export: want}
	var visit func(ref core.NodeRef, rr core.ReadRef)
	visit = func(ref core.NodeRef, rr core.ReadRef) {
		r.nodes++
		res := Result{Mode: ModeTree, Doc: "d", Ref: rr, store: s}
		want, err := refMarkup(s, ref)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := res.Markup(); err != nil || got != want {
			t.Fatalf("Markup = %q, %v\nreference %q", got, err, want)
		}
		if strings.HasSuffix(want, `"/>`) {
			r.attrOnly++
		}
		wantText, err := refTextContent(s, ref)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := res.Text(); err != nil || got != wantText {
			t.Fatalf("Text = %q, %v\nreference %q", got, err, wantText)
		}
		kids, err := s.trees.Children(ref)
		if err != nil {
			t.Fatal(err)
		}
		rkids, err := s.trees.ReadChildren(&rr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameChildren(kids, rkids); err != nil {
			t.Fatal(err)
		}
		content := false
		for i, k := range kids {
			name := ""
			if !k.IsLiteral() {
				if name, err = s.dict.Name(k.Label()); err != nil {
					t.Fatal(err)
				}
			}
			switch {
			case !strings.HasPrefix(name, AttrPrefix):
				content = true
			case content:
				r.reordered++
			}
			if strings.HasPrefix(name, AttrPrefix) && k.RID() != ref.RID() {
				r.proxied++
			}
			visit(k, rkids[i])
		}
	}
	visit(root, mustReadRoot(t, s, "d"))
	return r
}

// FuzzReadOutMatchesReference stores a seeded genStored document on
// 512-, 1024- or 2048-byte pages, bulk-loaded or built node by node,
// under either split-matrix extreme — so that attributes sit behind
// proxies (every node a record of its own) and behind scaffolding roots
// (a split that moves several siblings out together) — and holds
// ExportXML, and Markup and Text of every node, to the decoded-tree
// reference.
func FuzzReadOutMatchesReference(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 27} {
		for _, page := range []uint8{0, 1, 2} {
			f.Add(seed, page, uint8(60), seed%2 == 0, seed%3 == 0)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, page, items uint8, standalone, bfs bool) {
		m, store := splitExtremes[0], storeBulk
		if standalone {
			m = splitExtremes[1]
		}
		if bfs {
			store = storeBFS
		}
		model := genStored(rand.New(rand.NewSource(seed)), 20+int(items)%80)
		s, _ := newDocStore(t, 512<<(page%3), core.Config{Matrix: m.matrix(), CacheRecords: 4096})
		store(t, s, "d", model)
		readOutAgrees(t, s)
	})
}

// TestReadOutAttrFolding spells the folding rules out on one hand-built
// element, next to the reference: a repeated attribute keeps the place
// of its first occurrence and the value of its last, wherever among the
// children they stand.
func TestReadOutAttrFolding(t *testing.T) {
	el := func(name string, kids ...*xmlkit.Node) *xmlkit.Node { return xmlkit.NewElement(name, kids...) }
	model := el("R",
		el("@a", xmlkit.NewText("first")),
		el("B", xmlkit.NewText("x<y")),
		el("@b", xmlkit.NewText(`q"&`), xmlkit.NewText("<>")),
		el("@a", xmlkit.NewText("last")),
		el("E"),
		el("O", el("@only")),
		el("T", xmlkit.NewText("")),
	)
	const want = `<R a="last" b="q&quot;&amp;&lt;&gt;"><B>x&lt;y</B><E/><O only=""/><T></T></R>`
	s, _ := newDocStore(t, 2048, core.Config{})
	storeBulk(t, s, "d", model)
	var got bytes.Buffer
	if err := s.ExportXML("d", &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want {
		t.Fatalf("ExportXML = %s\nwant       %s", got.String(), want)
	}
	if ref, err := refMarkup(s, mustRootRef(t, s, "d")); err != nil || ref != want {
		t.Fatalf("reference = %s, %v", ref, err)
	}
}

// TestReadOutNonStringLiteral: a typed literal contributes nothing to
// Text or to an attribute value; among an element's children it fails
// Markup and ExportXML with the reference's error.
func TestReadOutNonStringLiteral(t *testing.T) {
	s, _ := newDocStore(t, 2048, core.Config{})
	storeBulk(t, s, "d", xmlkit.NewElement("R",
		xmlkit.NewElement("@v", xmlkit.NewText("a")),
		xmlkit.NewElement("N", xmlkit.NewText("n")),
	))
	tree, err := s.Tree("d")
	if err != nil {
		t.Fatal(err)
	}
	read := func() (Result, core.NodeRef) {
		return Result{Mode: ModeTree, Doc: "d", Ref: mustReadRoot(t, s, "d"), store: s}, mustRootRef(t, s, "d")
	}

	// Inside the attribute: skipped, as by the reference.
	if err := tree.InsertChild(core.Path{0}, 1, noderep.NewIntLiteral(dict.Text, 7)); err != nil {
		t.Fatal(err)
	}
	res, root := read()
	want, err := refMarkup(s, root)
	if err != nil || want != `<R v="a"><N>n</N></R>` {
		t.Fatalf("reference = %q, %v", want, err)
	}
	if got, err := res.Markup(); err != nil || got != want {
		t.Fatalf("Markup = %q, %v; want %q", got, err, want)
	}

	// Among an element's children: the reference's error.
	if err := tree.InsertChild(core.Path{1}, 1, noderep.NewIntLiteral(dict.Text, 7)); err != nil {
		t.Fatal(err)
	}
	res, root = read()
	_, wantErr := refMarkup(s, root)
	if wantErr == nil {
		t.Fatal("reference serialized a typed literal")
	}
	if _, err := res.Markup(); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("Markup error %v, reference %v", err, wantErr)
	}
	if err := s.ExportXML("d", &bytes.Buffer{}); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("ExportXML error %v, reference %v", err, wantErr)
	}
	if got, err := res.Text(); err != nil || got != "an" {
		t.Fatalf("Text = %q, %v; want %q", got, err, "an")
	}
}

// chunkRecorder records the size of every Write and runs a hook after
// the first.
type chunkRecorder struct {
	sizes []int
	after func()
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.sizes = append(c.sizes, len(p))
	if len(c.sizes) == 1 && c.after != nil {
		c.after()
	}
	return len(p), nil
}

// TestExportChunksAndCancellation: an export reaches its writer in
// whole chunks plus one tail, and one cancelled mid-document returns
// context.Canceled having written only whole chunks.
func TestExportChunksAndCancellation(t *testing.T) {
	model := genStored(rand.New(rand.NewSource(9)), 800)
	s, _ := newDocStore(t, 2048, core.Config{CacheRecords: 4096})
	storeBulk(t, s, "d", model)

	var full chunkRecorder
	if err := s.ExportXML("d", &full); err != nil {
		t.Fatal(err)
	}
	if len(full.sizes) < 3 {
		t.Fatalf("export made %d writes; the document is too small for the test", len(full.sizes))
	}
	for i, n := range full.sizes[:len(full.sizes)-1] {
		if n == 0 || n%exportChunk != 0 {
			t.Fatalf("write %d carried %d bytes, not whole chunks of %d", i, n, exportChunk)
		}
	}

	cx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cut := chunkRecorder{after: cancel}
	err := s.ExportXMLContext(cx, "d", &cut)
	if err != context.Canceled {
		t.Fatalf("cancelled export returned %v", err)
	}
	if len(cut.sizes) != 1 || cut.sizes[0] != full.sizes[0] {
		t.Fatalf("cancelled export wrote %v; want only the first write of %v", cut.sizes, full.sizes)
	}
	// The scratch went back to the pool clean: the next export is whole.
	var again bytes.Buffer
	if err := s.ExportXML("d", &again); err != nil {
		t.Fatal(err)
	}
	want, _ := refMarkup(s, mustRootRef(t, s, "d"))
	if again.String() != want {
		t.Fatal("export after a cancelled one differs from the reference")
	}
}

func mustRootRef(t testing.TB, s *Store, name string) core.NodeRef {
	t.Helper()
	tree, err := s.Tree(name)
	if err != nil {
		t.Fatal(err)
	}
	root, err := tree.Root()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestResultReadOutRelocksAfterClose: once its cursor is closed a match
// is read out under a freshly taken document read lock, so the read-out
// waits for a writer that got in.
func TestResultReadOutRelocksAfterClose(t *testing.T) {
	s, _ := newDocStore(t, 2048, core.Config{CacheRecords: 4096})
	storeBulk(t, s, "d", genStored(rand.New(rand.NewSource(4)), 20))
	steps, err := ParseQuery("//DIV")
	if err != nil {
		t.Fatal(err)
	}
	it, err := s.QueryIter(context.Background(), "d", steps, IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !it.Next() {
		t.Fatalf("no match: %v", it.Err())
	}
	res := it.Result()
	want, err := res.Markup() // under the cursor's lock
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}

	entered, release := make(chan struct{}), make(chan struct{})
	mutated := make(chan error, 1)
	go func() {
		mutated <- s.Mutate("d", func() error {
			close(entered)
			<-release
			return nil
		})
	}()
	<-entered
	read := make(chan string, 1)
	go func() {
		got, err := res.Markup()
		if err != nil {
			t.Error(err)
		}
		read <- got
	}()
	select {
	case <-read:
		t.Fatal("Markup ran while a writer held the document")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-mutated; err != nil {
		t.Fatal(err)
	}
	if got := <-read; got != want {
		t.Fatalf("Markup after Close = %q, want %q", got, want)
	}
}
