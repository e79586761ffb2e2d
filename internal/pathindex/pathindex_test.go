package pathindex_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"natix/internal/buffer"
	"natix/internal/core"
	"natix/internal/dict"
	"natix/internal/docstore"
	"natix/internal/pagedev"
	"natix/internal/pathindex"
	"natix/internal/records"
	"natix/internal/segment"
)

const play = `<PLAY>
<TITLE>The Tragedy of Indexing</TITLE>
<ACT><TITLE>Act I</TITLE>
<SCENE><TITLE>Scene I.1</TITLE>
<SPEECH><SPEAKER>ALPHA</SPEAKER><LINE>first line of one one</LINE><LINE>second line</LINE></SPEECH>
<SPEECH><SPEAKER>BETA</SPEAKER><LINE>beta speaks</LINE></SPEECH>
</SCENE>
<SCENE><TITLE>Scene I.2</TITLE>
<SPEECH><SPEAKER>GAMMA</SPEAKER><LINE>gamma opens scene two</LINE></SPEECH>
</SCENE>
</ACT>
<ACT><TITLE>Act II</TITLE>
<SCENE><TITLE>Scene II.1</TITLE>
<SPEECH><SPEAKER>DELTA</SPEAKER><LINE>delta in act two</LINE></SPEECH>
<SPEECH><SPEAKER>EPSILON</SPEAKER><LINE>epsilon follows</LINE></SPEECH>
</SCENE>
</ACT>
</PLAY>`

// env bundles the storage stack the index operates on.
type env struct {
	dev   pagedev.Device
	pool  *buffer.Pool
	rm    *records.Manager
	dict  *dict.Dict
	store *docstore.Store
}

func newEnv(t testing.TB, path string, pageSize int) *env {
	t.Helper()
	var (
		dev pagedev.Device
		err error
	)
	existing := false
	if path == "" {
		dev, err = pagedev.NewMem(pageSize)
	} else {
		if fi, serr := os.Stat(path); serr == nil && fi.Size() > 0 {
			existing = true
		}
		dev, err = pagedev.OpenFile(path, pageSize)
	}
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.New(dev, 512)
	if err != nil {
		t.Fatal(err)
	}
	var seg *segment.Segment
	if existing {
		seg, err = segment.Open(pool)
	} else {
		seg, err = segment.Create(pool)
	}
	if err != nil {
		t.Fatal(err)
	}
	rm := records.New(seg)
	var d *dict.Dict
	if existing {
		d, err = dict.Open(rm)
	} else {
		d, err = dict.Create(rm)
	}
	if err != nil {
		t.Fatal(err)
	}
	trees := core.New(rm, core.Config{})
	var s *docstore.Store
	if existing {
		s, err = docstore.Open(trees, d)
	} else {
		s, err = docstore.Create(trees, d)
	}
	if err != nil {
		t.Fatal(err)
	}
	return &env{dev: dev, pool: pool, rm: rm, dict: d, store: s}
}

// close flushes and releases the env so the file can be reopened.
func (e *env) close(t *testing.T) {
	t.Helper()
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := e.dev.Close(); err != nil {
		t.Fatal(err)
	}
}

func (e *env) importPlay(t *testing.T, name string) records.RID {
	t.Helper()
	info, err := e.store.ImportXML(name, strings.NewReader(play))
	if err != nil {
		t.Fatal(err)
	}
	return info.Root
}

func (e *env) label(t *testing.T, name string) dict.LabelID {
	t.Helper()
	id, ok := e.dict.Lookup(name)
	if !ok {
		t.Fatalf("label %q not in dictionary", name)
	}
	return id
}

// TestBuildSummaryAndPostings checks the path summary and posting lists
// of a small document, at a page size that forces record splits so
// postings cross scaffold records.
func TestBuildSummaryAndPostings(t *testing.T) {
	e := newEnv(t, "", 512)
	root := e.importPlay(t, "p")
	idx, err := pathindex.Build(e.store.Trees(), root)
	if err != nil {
		t.Fatal(err)
	}

	// Summary counts per distinct label path.
	wantCounts := map[string]uint32{
		"/PLAY":                          1,
		"/PLAY/TITLE":                    1,
		"/PLAY/ACT":                      2,
		"/PLAY/ACT/TITLE":                2,
		"/PLAY/ACT/SCENE":                3,
		"/PLAY/ACT/SCENE/TITLE":          3,
		"/PLAY/ACT/SCENE/SPEECH":         5,
		"/PLAY/ACT/SCENE/SPEECH/SPEAKER": 5,
		"/PLAY/ACT/SCENE/SPEECH/LINE":    6,
	}
	got := make(map[string]uint32)
	for id := pathindex.PathID(1); int(id) <= idx.NumPaths(); id++ {
		var parts []string
		for p := id; p != pathindex.NilPath; p = idx.Path(p).Parent {
			name, err := e.dict.Name(idx.Path(p).Label)
			if err != nil {
				t.Fatal(err)
			}
			parts = append([]string{name}, parts...)
		}
		got["/"+strings.Join(parts, "/")] = idx.Path(id).Count
	}
	if !reflect.DeepEqual(got, wantCounts) {
		t.Fatalf("summary = %v, want %v", got, wantCounts)
	}

	// Posting lists: document order, correct sizes, resolvable.
	speakers := idx.Postings(e.label(t, "SPEAKER"))
	if len(speakers) != 5 {
		t.Fatalf("SPEAKER postings = %d, want 5", len(speakers))
	}
	for i, p := range speakers {
		if i > 0 && p.Seq <= speakers[i-1].Seq {
			t.Fatalf("postings out of order at %d: %+v", i, speakers)
		}
		if p.Size != 1 { // each SPEAKER holds exactly one text literal
			t.Fatalf("SPEAKER size = %d, want 1", p.Size)
		}
		ref, err := e.store.Trees().RefByFacadeIndex(p.RID, int(p.Local))
		if err != nil {
			t.Fatal(err)
		}
		if ref.Label() != e.label(t, "SPEAKER") {
			t.Fatalf("posting %d resolved to label %d", i, ref.Label())
		}
	}

	// Containment: every SPEAKER lies in some SPEECH, each SPEECH in a
	// SCENE that contains it.
	speeches := idx.Postings(e.label(t, "SPEECH"))
	for _, sp := range speakers {
		found := false
		for _, speech := range speeches {
			if speech.Contains(sp) {
				found = true
			}
		}
		if !found {
			t.Fatalf("speaker %+v not contained in any speech", sp)
		}
	}
	if root, ok := idx.Root(); !ok || root.Seq != 0 || int(root.Size) != idx.NumNodes()-1 {
		t.Fatalf("root posting = %+v ok=%v nodes=%d", root, ok, idx.NumNodes())
	}
}

// TestPutGetRoundTrip stores an index and reloads it from disk in a
// fresh session, checking the reloaded form is equivalent to the built
// one (summary, directory, and lazily loaded postings).
func TestPutGetRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "px.natix")
	e := newEnv(t, path, 512)
	root := e.importPlay(t, "p")
	idx, err := pathindex.Build(e.store.Trees(), root)
	if err != nil {
		t.Fatal(err)
	}
	px, err := pathindex.Open(e.rm)
	if err != nil {
		t.Fatal(err)
	}
	if err := px.Put("p", idx, nil); err != nil {
		t.Fatal(err)
	}
	e.close(t)

	e2 := newEnv(t, path, 512)
	defer e2.close(t)
	px2, err := pathindex.Open(e2.rm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := px2.Get("p")
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("index missing after reopen")
	}
	if got.NumNodes() != idx.NumNodes() || got.NumPaths() != idx.NumPaths() ||
		got.RootLabel() != idx.RootLabel() {
		t.Fatalf("header mismatch: %d/%d/%d vs %d/%d/%d",
			got.NumNodes(), got.NumPaths(), got.RootLabel(),
			idx.NumNodes(), idx.NumPaths(), idx.RootLabel())
	}
	for id := pathindex.PathID(1); int(id) <= idx.NumPaths(); id++ {
		if got.Path(id) != idx.Path(id) {
			t.Fatalf("path %d: %+v vs %+v", id, got.Path(id), idx.Path(id))
		}
	}
	if !reflect.DeepEqual(got.PostingLabels(), idx.PostingLabels()) {
		t.Fatalf("labels: %v vs %v", got.PostingLabels(), idx.PostingLabels())
	}
	for _, l := range idx.PostingLabels() {
		list, err := got.Postings(l)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(list, idx.Postings(l)) {
			t.Fatalf("postings of %d differ", l)
		}
		if got.PostingCount(l) != len(list) {
			t.Fatalf("directory count of %d = %d, want %d", l, got.PostingCount(l), len(list))
		}
	}
	if r, ok, err := got.Root(); err != nil || !ok || r.Seq != 0 {
		t.Fatalf("Root() = %+v, %v, %v", r, ok, err)
	}
}

// TestStorePersistence stores indexes, drops one, and reopens the file
// to check the catalog and blobs survive.
func TestStorePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "px.natix")

	e := newEnv(t, path, 512)
	rootA := e.importPlay(t, "a")
	rootB := e.importPlay(t, "b")
	px, err := pathindex.Open(e.rm)
	if err != nil {
		t.Fatal(err)
	}
	idxA, err := pathindex.Build(e.store.Trees(), rootA)
	if err != nil {
		t.Fatal(err)
	}
	idxB, err := pathindex.Build(e.store.Trees(), rootB)
	if err != nil {
		t.Fatal(err)
	}
	if err := px.Put("a", idxA, nil); err != nil {
		t.Fatal(err)
	}
	if err := px.Put("b", idxB, nil); err != nil {
		t.Fatal(err)
	}
	if err := px.Drop("b"); err != nil {
		t.Fatal(err)
	}
	if px.Has("b") {
		t.Fatal("b still present after drop")
	}
	wantSpeakers := len(idxA.Postings(e.label(t, "SPEAKER")))
	e.close(t)

	// Reopen from disk.
	e2 := newEnv(t, path, 512)
	defer e2.close(t)
	px2, err := pathindex.Open(e2.rm)
	if err != nil {
		t.Fatal(err)
	}
	if got := px2.Names(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("names = %v", got)
	}
	idx, err := px2.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if idx == nil {
		t.Fatal("index a missing after reopen")
	}
	speakers, err := idx.Postings(e2.label(t, "SPEAKER"))
	if err != nil {
		t.Fatal(err)
	}
	if len(speakers) != wantSpeakers {
		t.Fatalf("SPEAKER postings after reopen = %d, want %d", len(speakers), wantSpeakers)
	}
	if got, err := px2.Get("b"); err != nil || got != nil {
		t.Fatalf("Get(b) = %v, %v; want nil, nil", got, err)
	}
	if _, err := px2.BlobSize("a"); err != nil {
		t.Fatal(err)
	}
}
