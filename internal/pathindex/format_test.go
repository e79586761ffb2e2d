package pathindex_test

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"natix/internal/core"
	"natix/internal/corpus"
	"natix/internal/docstore"
	"natix/internal/noderep"
	"natix/internal/pathindex"
	"natix/internal/xmlkit"
)

// storeBFS stores model node by node in the paper's incremental order
// (§4.3), so records split as the document grows. The document gets no
// index; ReindexDocument builds one by walking the stored tree.
func storeBFS(t testing.TB, s *docstore.Store, name string, model *xmlkit.Node) {
	t.Helper()
	label, err := s.InternLabel(model.Name)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := s.Trees().CreateTree(label)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range corpus.BinaryBFSOps(model) {
		n := noderep.NewTextLiteral(op.Text)
		if !op.IsText {
			if label, err = s.InternLabel(op.Name); err != nil {
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

// indexBytes returns the size of name's stored index, of its summary
// blob alone, and its number of postings.
func indexBytes(t testing.TB, px *pathindex.Store, name string) (total, summary int64, postings int) {
	t.Helper()
	total, err := px.BlobSize(name)
	if err != nil {
		t.Fatal(err)
	}
	h, err := px.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	summary = total
	for _, l := range h.PostingLabels() {
		n, err := h.PostingSize(l)
		if err != nil {
			t.Fatal(err)
		}
		summary -= n
		postings += h.PostingCount(l)
	}
	return total, summary, postings
}

// TestPostingBytes is the space guard of the postings codec: on a
// full-scale play at the benchmark's page size the whole index costs
// at most 4.5 bytes a posting (22 and a header before runs), and what
// a query must read before it can probe — summary and directory — at
// most 512 bytes.
func TestPostingBytes(t *testing.T) {
	e := newDiffEnv(t, 8192, nil)
	if _, err := e.store.ImportXML("play", strings.NewReader(xmlkit.SerializeString(corpus.GeneratePlay(corpus.DefaultSpec(), 0)))); err != nil {
		t.Fatal(err)
	}
	total, summary, postings := indexBytes(t, e.px, "play")
	perPosting := float64(total) / float64(postings)
	t.Logf("%d postings in %d bytes (%.2f B/posting), summary and directory %d bytes", postings, total, perPosting, summary)
	if perPosting > 4.5 {
		t.Errorf("index costs %.2f B/posting, want ≤ 4.5", perPosting)
	}
	if summary > 512 {
		t.Errorf("summary and directory are %d bytes, want ≤ 512", summary)
	}
}

// benchClasses are the path expressions of bench/'s query classes that
// the index can answer, with the limit the class reads under.
var benchClasses = []struct {
	expr  string
	limit int
}{
	{"/PLAY/ACT[3]/SCENE[2]//SPEAKER", 0},
	{"/PLAY/ACT[1]/SCENE[1]/SPEECH[1]", 0},
	{"//PERSONA", 0},
	{"//LINE", 10},
	{"//SPEECH", 0},
	{"//SCENE/SPEECH[1]", 0},
	{"//SPEAKER", 0},
	{"/PLAY/ACT/SCENE/SPEECH/LINE", 0},
}

// answers runs every bench class against name three ways — eager
// query, count, cursor under the class's limit — and returns all of it
// as one comparable slice.
func answers(t *testing.T, s *docstore.Store, name string) []string {
	t.Helper()
	var out []string
	for _, c := range benchClasses {
		steps, err := docstore.ParseQuery(c.expr)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.QuerySteps(context.Background(), name, steps)
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		for _, r := range res {
			m, err := r.Markup()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, m)
		}
		n, err := s.QueryCountSteps(context.Background(), name, steps)
		if err != nil {
			t.Fatalf("%s: count: %v", c.expr, err)
		}
		out = append(out, fmt.Sprintf("count %d", n))
		it, err := s.QueryIter(context.Background(), name, steps, docstore.IterOptions{Limit: c.limit})
		if err != nil {
			t.Fatal(err)
		}
		for it.Next() {
			m, err := it.Result().Markup()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, m)
		}
		if err := it.Close(); err != nil {
			t.Fatalf("%s: cursor: %v", c.expr, err)
		}
	}
	return out
}

// TestOldStoreAnswersAndUpgrades takes a store whose index was written
// before version 3 through its life: reopened, it answers every bench
// query class from the fixed-width lists exactly as the scan does;
// ReindexDocument rewrites the index in version 3, at least four times
// smaller, and the answers stay.
func TestOldStoreAnswersAndUpgrades(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.natix")
	src := xmlkit.SerializeString(corpus.GeneratePlay(corpus.SmallSpec(1), 0))
	const perClass = 3 // query, count, cursor

	e := newEnv(t, path, 2048)
	px, err := pathindex.Open(e.rm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.store.ImportXML("play", strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	want := answers(t, e.store, "play") // no index attached yet: the scan
	if st := e.store.IndexStats(); st.ScanQueries != perClass*int64(len(benchClasses)) || len(want) < 100 {
		t.Fatalf("scan baseline: %d answers, %+v", len(want), st)
	}
	e.store.EnablePathIndex(px)
	if err := e.store.ReindexDocument("play"); err != nil {
		t.Fatal(err)
	}
	newSize, _, _ := indexBytes(t, px, "play")
	if err := pathindex.StoreAsV2(px, "play"); err != nil {
		t.Fatal(err)
	}
	e.close(t)

	e = newEnv(t, path, 2048)
	defer e.close(t)
	if px, err = pathindex.Open(e.rm); err != nil {
		t.Fatal(err)
	}
	e.store.EnablePathIndex(px)
	h, err := px.Get("play")
	if err != nil {
		t.Fatal(err)
	}
	if h.FormatVersion() != pathindex.FixedVersion {
		t.Fatalf("reopened index is version %d, want %d", h.FormatVersion(), pathindex.FixedVersion)
	}
	oldSize, _, _ := indexBytes(t, px, "play")
	if got := answers(t, e.store, "play"); !slices.Equal(got, want) {
		t.Error("version 2 index answers differ from the scan")
	}
	if st := e.store.IndexStats(); st.IndexedQueries != perClass*int64(len(benchClasses)) || st.ScanQueries != 0 {
		t.Errorf("version 2 index not used: %+v", st)
	}

	if err := e.store.ReindexDocument("play"); err != nil {
		t.Fatal(err)
	}
	if h, err = px.Get("play"); err != nil || h.FormatVersion() != pathindex.IndexVersion {
		t.Fatalf("reindexed: version %d, %v", h.FormatVersion(), err)
	}
	size, _, _ := indexBytes(t, px, "play")
	if size != newSize || size*4 > oldSize {
		t.Errorf("reindexed index is %d bytes; %d before the downgrade, %d as version 2 (want at most a quarter)", size, newSize, oldSize)
	}
	if got := answers(t, e.store, "play"); !slices.Equal(got, want) {
		t.Error("answers changed across the upgrade")
	}
	if st := e.store.IndexStats(); st.IndexedQueries != 2*perClass*int64(len(benchClasses)) || st.ScanQueries != 0 {
		t.Errorf("upgraded index not used: %+v", st)
	}
}

// BenchmarkPostingsCodec prices the run codec against the fixed-width
// one it replaced, on the longest list of a full-scale play (LINE, one
// long run per record) and on one whose path changes inside records
// (TITLE).
func BenchmarkPostingsCodec(b *testing.B) {
	e := newDiffEnv(b, 8192, nil)
	if _, err := e.store.ImportXML("play", strings.NewReader(xmlkit.SerializeString(corpus.GeneratePlay(corpus.DefaultSpec(), 0)))); err != nil {
		b.Fatal(err)
	}
	h, err := e.px.Get("play")
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"LINE", "TITLE"} {
		label, ok := e.dict.Lookup(name)
		if !ok {
			b.Fatalf("%s not interned", name)
		}
		list, err := h.Postings(label)
		if err != nil {
			b.Fatal(err)
		}
		for _, codec := range []struct {
			name    string
			version uint16
			encode  func([]byte, []pathindex.Posting) []byte
		}{
			{"v2ref", pathindex.FixedVersion, pathindex.RefEncodeV2},
			{"v3", pathindex.IndexVersion, pathindex.EncodePostings},
		} {
			blob := codec.encode(nil, list)
			perPosting := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(list)), "ns/posting")
				b.ReportMetric(float64(len(blob))/float64(len(list)), "B/posting")
				b.ReportMetric(float64(len(list))/float64(pathindex.Runs(list)), "postings/run")
			}
			b.Run(fmt.Sprintf("%s/%s/encode", name, codec.name), func(b *testing.B) {
				buf := make([]byte, 0, len(blob))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					buf = codec.encode(buf[:0], list)
				}
				perPosting(b)
			})
			b.Run(fmt.Sprintf("%s/%s/decode", name, codec.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := pathindex.DecodePostings(codec.version, blob, h.NumPaths(), uint32(h.NumNodes())); err != nil {
						b.Fatal(err)
					}
				}
				perPosting(b)
			})
		}
	}
}
