package pathindex

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"natix/internal/dict"
	"natix/internal/noderep"
	"natix/internal/pagedev"
	"natix/internal/records"
)

// streamSink is the surface the bulk loader drives; StreamBuilder and
// the reference builder both have it.
type streamSink interface {
	Enter(*noderep.Node)
	Literal()
	Exit(*noderep.Node) error
	OnRecord(records.RID, *noderep.Node) error
	Finish() (*Index, error)
}

// streamOp is one call of a recorded load.
type streamOp struct {
	kind byte // 'e' Enter, 'l' Literal, 'x' Exit, 'r' OnRecord
	n    *noderep.Node
	rid  records.RID
}

// script is a recorded load: the calls a bulk load of one synthetic
// document makes, over nodes that stay valid for replaying it any
// number of times.
type script struct {
	ops      []streamOp
	elements int
}

func (sc *script) replay(sink streamSink) (*Index, error) {
	for _, op := range sc.ops {
		var err error
		switch op.kind {
		case 'e':
			sink.Enter(op.n)
		case 'l':
			sink.Literal()
		case 'x':
			err = sink.Exit(op.n)
		case 'r':
			err = sink.OnRecord(op.rid, op.n)
		}
		if err != nil {
			return nil, err
		}
	}
	return sink.Finish()
}

// scriptGen records the load of a random document the way the bulk
// builder packs one: children close before their parent, any run of an
// open element's closed children may be cut out into a partition record
// (under a scaffold when it is more than one subtree) leaving a proxy,
// a closed element may become a standalone record, and the root's
// record comes last.
type scriptGen struct {
	rng      *rand.Rand
	out      script
	labels   int     // distinct element labels
	perLevel int     // when > 0: labels per nesting level instead, so the summary stays small
	maxDepth int     // nesting bound
	fanout   int     // children per element, at most
	text     float64 // share of children that are literals
	cut      float64 // chance, per child added, that a run is cut out
	alone    float64 // chance that a closed element is stored standalone
	page     pagedev.PageNo
}

func (g *scriptGen) rid() records.RID {
	g.page++
	return records.RID{Page: g.page, Slot: uint16(g.rng.Intn(8))}
}

func (g *scriptGen) emit(root *noderep.Node) *noderep.Node {
	root.Parent = nil
	rid := g.rid()
	g.out.ops = append(g.out.ops, streamOp{kind: 'r', n: root, rid: rid})
	return noderep.NewProxy(rid)
}

// element records one element and returns what stands for it in its
// parent: the node itself, or a proxy to its standalone record.
func (g *scriptGen) element(depth int) *noderep.Node {
	label := 10 + g.rng.Intn(g.labels)
	if g.perLevel > 0 {
		label = 10 + depth*g.perLevel + g.rng.Intn(g.perLevel)
	}
	n := noderep.NewAggregate(dict.LabelID(label))
	g.out.ops = append(g.out.ops, streamOp{kind: 'e', n: n})
	g.out.elements++
	kids := 0
	if depth < g.maxDepth {
		kids = g.rng.Intn(g.fanout + 1)
	}
	for i := 0; i < kids; i++ {
		if g.rng.Float64() < g.text {
			g.out.ops = append(g.out.ops, streamOp{kind: 'l'})
			n.AppendChild(noderep.NewTextLiteral("t"))
		} else {
			n.AppendChild(g.element(depth + 1))
		}
		if g.rng.Float64() < g.cut {
			g.cutRun(n)
		}
	}
	g.out.ops = append(g.out.ops, streamOp{kind: 'x', n: n})
	if depth > 0 && g.rng.Float64() < g.alone {
		return g.emit(n)
	}
	return n
}

// cutRun moves a random run of n's children into a partition record.
func (g *scriptGen) cutRun(n *noderep.Node) {
	start := g.rng.Intn(len(n.Children))
	end := start + 1 + g.rng.Intn(len(n.Children)-start)
	run := n.Children[start:end]
	if len(run) == 1 && run[0].Kind == noderep.KindProxy {
		return
	}
	root := run[0]
	if len(run) > 1 {
		root = noderep.NewScaffoldAggregate()
		for _, c := range run {
			root.AppendChild(c)
		}
	}
	proxy := g.emit(root)
	proxy.Parent = n
	n.Children = append(append(n.Children[:start:start], proxy), n.Children[end:]...)
}

func genScript(seed int64, shape string) *script {
	g := &scriptGen{rng: rand.New(rand.NewSource(seed)), labels: 6, maxDepth: 6, fanout: 6, text: 0.4, cut: 0.15, alone: 0.1}
	switch shape {
	case "deep":
		g.maxDepth, g.fanout, g.text = 40, 2, 0.2
	case "wide":
		g.maxDepth, g.fanout, g.labels = 2, 300, 3
	case "one-record":
		g.cut, g.alone = 0, 0
	case "standalone":
		g.alone = 1
	}
	g.emit(g.element(0))
	return &g.out
}

// TestStreamBuilderMatchesReference replays the same recorded loads into
// StreamBuilder and into the map-and-sort builder it replaced: the two
// indexes must be deeply equal. One scratch serves every replay, so a
// row, count or stack entry left over from the previous document would
// show.
func TestStreamBuilderMatchesReference(t *testing.T) {
	var scratch StreamScratch
	for _, shape := range []string{"mixed", "deep", "wide", "one-record", "standalone"} {
		for seed := int64(1); seed <= 5; seed++ {
			sc := genScript(seed, shape)
			want, err := sc.replay(NewRefStreamBuilder())
			if err != nil {
				t.Fatalf("%s/%d: reference: %v", shape, seed, err)
			}
			got, err := sc.replay(NewStreamBuilder(&scratch))
			if err != nil {
				t.Fatalf("%s/%d: %v", shape, seed, err)
			}
			if d := DiffIndex(got, want); d != "" {
				t.Fatalf("%s/%d (%d elements): %s", shape, seed, sc.elements, d)
			}
			for label, list := range got.postings {
				if cap(list) != len(list) {
					t.Fatalf("%s/%d: label %d list has len %d cap %d, want exact", shape, seed, label, len(list), cap(list))
				}
			}
			if root, ok := got.Root(); !ok || root.Seq != 0 || int(root.Size) != got.NumNodes()-1 {
				t.Fatalf("%s/%d: root posting %+v ok=%v of %d nodes", shape, seed, root, ok, got.NumNodes())
			}
		}
	}
}

// TestStreamBuilderErrors reaches every check the builder makes.
func TestStreamBuilderErrors(t *testing.T) {
	rid := records.RID{Page: 7, Slot: 1}
	elem := func() *noderep.Node { return noderep.NewAggregate(12) }
	closed := func(b *StreamBuilder) *noderep.Node {
		n := elem()
		b.Enter(n)
		if err := b.Exit(n); err != nil {
			t.Fatal(err)
		}
		return n
	}
	cases := []struct {
		name string
		want string
		run  func(b *StreamBuilder) error
	}{
		{"exit with nothing open", "Exit of unentered node", func(b *StreamBuilder) error {
			return b.Exit(elem())
		}},
		{"exit of an outer element", "not the innermost open element", func(b *StreamBuilder) error {
			outer, inner := elem(), elem()
			b.Enter(outer)
			b.Enter(inner)
			return b.Exit(outer)
		}},
		{"record holds a node never entered", "unregistered element", func(b *StreamBuilder) error {
			return b.OnRecord(rid, elem())
		}},
		{"record holds an element still open", "unregistered element", func(b *StreamBuilder) error {
			n := elem()
			b.Enter(n)
			return b.OnRecord(rid, n)
		}},
		{"element emitted twice", "unregistered element", func(b *StreamBuilder) error {
			n := closed(b)
			if err := b.OnRecord(rid, n); err != nil {
				return fmt.Errorf("first emission: %w", err)
			}
			return b.OnRecord(records.RID{Page: 8}, n)
		}},
		{"node of another label carries the slot", "unregistered element", func(b *StreamBuilder) error {
			n := closed(b)
			n.Label++
			return b.OnRecord(rid, n)
		}},
		{"facade index past uint16", "exceeds uint16", func(b *StreamBuilder) error {
			root := noderep.NewScaffoldAggregate()
			for i := 0; i <= 0xFFFF; i++ {
				root.AppendChild(noderep.NewTextLiteral(""))
			}
			root.AppendChild(closed(b))
			return b.OnRecord(rid, root)
		}},
		{"finish with an element open", "1 elements still open", func(b *StreamBuilder) error {
			b.Enter(elem())
			_, err := b.Finish()
			return err
		}},
		{"finish with an element in no record", "1 elements never reached a record", func(b *StreamBuilder) error {
			closed(b)
			if err := b.OnRecord(rid, closed(b)); err != nil {
				return fmt.Errorf("emission: %w", err)
			}
			_, err := b.Finish()
			return err
		}},
	}
	var scratch StreamScratch
	for _, c := range cases {
		err := c.run(NewStreamBuilder(&scratch))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
	// The last facade index that fits is accepted.
	b := NewStreamBuilder(&scratch)
	root := noderep.NewScaffoldAggregate()
	for i := 0; i < 0xFFFF; i++ {
		root.AppendChild(noderep.NewTextLiteral(""))
	}
	root.AppendChild(closed(b))
	if err := b.OnRecord(rid, root); err != nil {
		t.Fatalf("facade index 65535: %v", err)
	}
	if idx, err := b.Finish(); err != nil || idx.Postings(12)[0].Local != 0xFFFF {
		t.Fatalf("facade index 65535: index %+v, %v", idx, err)
	}
}

// BenchmarkStreamBuilder measures what riding along with a bulk load
// costs the index, per element, for the map-and-sort builder ("old") and
// the element-table builder working in a reused scratch ("new"), over
// the same recorded play-sized load.
func BenchmarkStreamBuilder(b *testing.B) {
	// A play has about 9000 elements, most of them leaves a few levels
	// down, in records of a few hundred nodes, on a few dozen label
	// paths.
	g := &scriptGen{rng: rand.New(rand.NewSource(1)), labels: 1, perLevel: 3, maxDepth: 4, fanout: 12, text: 0.45, cut: 0.02}
	root := noderep.NewAggregate(9)
	g.out.ops = append(g.out.ops, streamOp{kind: 'e', n: root})
	for g.out.elements = 1; g.out.elements < 9000; {
		root.AppendChild(g.element(1))
		if len(root.Children) >= 8 {
			g.cutRun(root)
		}
	}
	g.out.ops = append(g.out.ops, streamOp{kind: 'x', n: root})
	g.emit(root)
	sc := &g.out
	var scratch StreamScratch
	for _, side := range []struct {
		name string
		sink func() streamSink
	}{
		{"old", func() streamSink { return NewRefStreamBuilder() }},
		{"new", func() streamSink { return NewStreamBuilder(&scratch) }},
	} {
		b.Run(side.name, func(b *testing.B) {
			if _, err := sc.replay(side.sink()); err != nil { // warm the scratch
				b.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sc.replay(side.sink()); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			elems := float64(b.N) * float64(sc.elements)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/elems, "ns/elem")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/elems, "B/elem")
		})
	}
}
