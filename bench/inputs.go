package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"natix"
	"natix/internal/corpus"
	"natix/internal/xmlkit"
)

// scale sizes the corpus and the fixed traced prefixes. "full" is the
// paper's corpus; "tiny" exists so the package's tests run every code
// path in seconds.
type scale struct {
	Name          string `json:"name"`
	spec          corpus.Spec
	ReaderDocs    int `json:"reader_docs"`    // never-edited plays the edit_incr reader queries
	ResidentBytes int `json:"resident_bytes"` // query_resident pool: the whole file fits
	SpillBytes    int `json:"spill_bytes"`    // every other pool: the paper's 2 MB
	// Fixed sizes of the traced, single-client prefix of each workload.
	PrefixRounds int `json:"prefix_rounds"` // load_bulk ImportXML rounds
	PrefixPlays  int `json:"prefix_plays"`  // edit_incr plays built
	PrefixPasses int `json:"prefix_passes"` // query passes
}

var scales = map[string]scale{
	"full": {Name: "full", spec: corpus.DefaultSpec(), ReaderDocs: 10,
		ResidentBytes: 64 << 20, SpillBytes: 2 << 20,
		PrefixRounds: 4, PrefixPlays: 4, PrefixPasses: 3},
	"tiny": {Name: "tiny", spec: corpus.SmallSpec(2), ReaderDocs: 1,
		ResidentBytes: 8 << 20, SpillBytes: 64 << 10,
		PrefixRounds: 2, PrefixPlays: 2, PrefixPasses: 2},
}

// resultKind says how a query class consumes its matches.
type resultKind int

const (
	kindText   resultKind = iota // Match.Text of every match
	kindMarkup                   // Match.Markup of every match
	kindCount                    // PreparedQuery.Count, no materialisation
	kindExport                   // ExportXML of the whole document
)

// class is one query class: a path expression and the way its result is
// consumed. The select classes return small results (latency is the
// user-visible number), the bulk classes large ones (bytes per second).
type class struct {
	Name  string
	Expr  string
	Kind  resultKind
	Limit int
	Bulk  bool
}

var classes = []class{
	{Name: "q1", Expr: "/PLAY/ACT[3]/SCENE[2]//SPEAKER", Kind: kindText},    // paper Query 1
	{Name: "q3", Expr: "/PLAY/ACT[1]/SCENE[1]/SPEECH[1]", Kind: kindMarkup}, // paper Query 3
	{Name: "persona", Expr: "//PERSONA", Kind: kindText},
	{Name: "first10", Expr: "//LINE", Kind: kindText, Limit: 10},
	{Name: "count", Expr: "//SPEECH", Kind: kindCount},
	{Name: "q2", Expr: "//SCENE/SPEECH[1]", Kind: kindMarkup, Bulk: true}, // paper Query 2
	{Name: "speakers", Expr: "//SPEAKER", Kind: kindText, Bulk: true},
	{Name: "lines", Expr: "/PLAY/ACT/SCENE/SPEECH/LINE", Kind: kindText, Bulk: true}, // index-eligible full path
	{Name: "wild", Expr: "/PLAY/ACT/SCENE/*", Kind: kindMarkup, Bulk: true},          // forces the navigating scan
	{Name: "export", Kind: kindExport, Bulk: true},                                   // Figure 10 traversal
}

// selectClasses indexes the select classes in classes.
var selectClasses = func() []int {
	var out []int
	for i, cl := range classes {
		if !cl.Bulk {
			out = append(out, i)
		}
	}
	return out
}()

// answer is what a query class returns on one document: how many
// matches and how many result bytes.
type answer struct {
	Matches int
	Bytes   int64
}

// inputs is everything a run derives from its seed before it touches
// the store: the corpus, its serialisation, and the oracle's expected
// answer for every (document, class) pair.
type inputs struct {
	seed     int64
	plays    []*xmlkit.Node
	names    []string
	xml      []string
	xmlBytes int64
	nodes    int
	expect   [][]answer // [doc][class]
}

func makeInputs(sc scale, seed int64) *inputs {
	spec := sc.spec
	spec.Seed = seed
	in := &inputs{seed: seed, plays: corpus.Generate(spec)}
	for i, p := range in.plays {
		in.names = append(in.names, fmt.Sprintf("play%02d", i))
		in.xml = append(in.xml, xmlkit.SerializeString(p))
		in.xmlBytes += int64(len(in.xml[i]))
		in.nodes += p.CountNodes()
		row := make([]answer, len(classes))
		for c, cl := range classes {
			row[c] = reference(p, cl)
		}
		in.expect = append(in.expect, row)
	}
	return in
}

// rng returns a generator for one named purpose, so that every shuffle
// of a run is a function of the seed and never of another shuffle.
func (in *inputs) rng(purpose string, n int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", in.seed, purpose, n)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// prepared holds the parsed form of every class for one open store.
type prepared []*natix.PreparedQuery

func prepare(db *natix.DB) (prepared, error) {
	out := make(prepared, len(classes))
	for i, cl := range classes {
		if cl.Kind == kindExport {
			continue
		}
		p, err := db.Prepare(cl.Expr)
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", cl.Name, err)
		}
		out[i] = p
	}
	return out, nil
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// exec evaluates class c on document doc through the public API and
// consumes every match.
func (p prepared) exec(db *natix.DB, c int, doc string) (answer, error) {
	cl := classes[c]
	ctx := context.Background()
	switch cl.Kind {
	case kindExport:
		var w countingWriter
		if err := db.ExportXML(doc, &w); err != nil {
			return answer{}, err
		}
		return answer{Matches: 1, Bytes: w.n}, nil
	case kindCount:
		n, err := p[c].Count(ctx, doc)
		return answer{Matches: n}, err
	}
	var opts []natix.QueryOption
	if cl.Limit > 0 {
		opts = append(opts, natix.WithLimit(cl.Limit))
	}
	cur, err := p[c].Iter(ctx, doc, opts...)
	if err != nil {
		return answer{}, err
	}
	defer cur.Close()
	var a answer
	for cur.Next() {
		var s string
		if cl.Kind == kindMarkup {
			s, err = cur.Match().Markup()
		} else {
			s, err = cur.Match().Text()
		}
		if err != nil {
			return a, err
		}
		a.Matches++
		a.Bytes += int64(len(s))
	}
	return a, cur.Err()
}

// importDocs imports the first n corpus documents one ImportXML call at
// a time.
func importDocs(db *natix.DB, in *inputs, n int) error {
	for i, name := range in.names[:n] {
		if err := db.ImportXML(name, strings.NewReader(in.xml[i])); err != nil {
			return fmt.Errorf("import %s: %w", name, err)
		}
	}
	return nil
}

// exportEquals reports whether the stored document serialises to
// exactly want.
func exportEquals(db *natix.DB, doc, want string) (bool, error) {
	var b strings.Builder
	b.Grow(len(want))
	if err := db.ExportXML(doc, &b); err != nil {
		return false, err
	}
	return b.String() == want, nil
}
