package docstore

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"natix/internal/buffer"
	"natix/internal/core"
	"natix/internal/dict"
	"natix/internal/noderep"
	"natix/internal/pagedev"
	"natix/internal/records"
	"natix/internal/segment"
	"natix/internal/xmlkit"
)

const play = `<PLAY>
<TITLE>The Tragedy of Testing</TITLE>
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

func newDocStore(t testing.TB, pageSize int, cfg core.Config) (*Store, *buffer.Pool) {
	t.Helper()
	dev, err := pagedev.NewMem(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.New(dev, 512)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := segment.Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	rm := records.New(seg)
	d, err := dict.Create(rm)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Create(core.New(rm, cfg), d)
	if err != nil {
		t.Fatal(err)
	}
	return s, pool
}

func TestImportExportRoundTrip(t *testing.T) {
	for _, pageSize := range []int{512, 2048} {
		t.Run(fmt.Sprintf("page%d", pageSize), func(t *testing.T) {
			s, _ := newDocStore(t, pageSize, core.Config{})
			if _, err := s.ImportXML("hamlet", strings.NewReader(play)); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := s.ExportXML("hamlet", &out); err != nil {
				t.Fatal(err)
			}
			// Compare parsed trees (whitespace-only text was dropped).
			want, _ := xmlkit.ParseString(play, xmlkit.ParseOptions{})
			got, err := xmlkit.ParseString(out.String(), xmlkit.ParseOptions{})
			if err != nil {
				t.Fatalf("exported XML unparsable: %v\n%s", err, out.String())
			}
			if !xmlkit.Equal(want.Root, got.Root) {
				t.Fatalf("round trip changed document:\n%s", out.String())
			}
			// Storage invariants hold after import.
			tree, err := s.Tree("hamlet")
			if err != nil {
				t.Fatal(err)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAttributesRoundTrip(t *testing.T) {
	src := `<PLAY id="p1" year="1604"><ACT n="1"><SCENE n="2">text</SCENE></ACT></PLAY>`
	s, _ := newDocStore(t, 1024, core.Config{})
	if _, err := s.ImportXML("attrs", strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := s.ExportXML("attrs", &out); err != nil {
		t.Fatal(err)
	}
	want, _ := xmlkit.ParseString(src, xmlkit.ParseOptions{})
	got, err := xmlkit.ParseString(out.String(), xmlkit.ParseOptions{})
	if err != nil || !xmlkit.Equal(want.Root, got.Root) {
		t.Fatalf("attribute round trip failed: %s (%v)", out.String(), err)
	}
}

func TestCatalogPersistence(t *testing.T) {
	dev, _ := pagedev.NewMem(1024)
	pool, _ := buffer.New(dev, 256)
	seg, _ := segment.Create(pool)
	rm := records.New(seg)
	d, _ := dict.Create(rm)
	s, err := Create(core.New(rm, core.Config{}), d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ImportXML("doc1", strings.NewReader(play)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ImportFlat("doc2", strings.NewReader(play)); err != nil {
		t.Fatal(err)
	}
	if err := pool.Clear(); err != nil {
		t.Fatal(err)
	}

	// Reopen everything from disk.
	pool2, _ := buffer.New(dev, 256)
	seg2, err := segment.Open(pool2)
	if err != nil {
		t.Fatal(err)
	}
	rm2 := records.New(seg2)
	d2, err := dict.Open(rm2)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(core.New(rm2, core.Config{}), d2)
	if err != nil {
		t.Fatal(err)
	}
	docs := s2.Documents()
	if len(docs) != 2 || docs[0].Name != "doc1" || docs[1].Name != "doc2" {
		t.Fatalf("catalog after reopen: %+v", docs)
	}
	if docs[0].Mode != ModeTree || docs[1].Mode != ModeFlat {
		t.Fatalf("modes after reopen: %+v", docs)
	}
	var out bytes.Buffer
	if err := s2.ExportXML("doc1", &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "GAMMA") {
		t.Fatal("reopened document lost content")
	}
}

func TestDuplicateAndMissing(t *testing.T) {
	s, _ := newDocStore(t, 1024, core.Config{})
	if _, err := s.ImportXML("x", strings.NewReader(play)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ImportXML("x", strings.NewReader(play)); err == nil {
		t.Fatal("duplicate import succeeded")
	}
	if err := s.ExportXML("nope", &bytes.Buffer{}); err == nil {
		t.Fatal("export of missing document succeeded")
	}
	if err := s.Delete("nope"); err == nil {
		t.Fatal("delete of missing document succeeded")
	}
	if _, err := s.Lookup("x"); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteDocumentFreesSpace(t *testing.T) {
	s, _ := newDocStore(t, 512, core.Config{})
	if _, err := s.ImportXML("x", strings.NewReader(play)); err != nil {
		t.Fatal(err)
	}
	stats := s.Trees().Stats()
	if err := s.Delete("x"); err != nil {
		t.Fatal(err)
	}
	after := s.Trees().Stats()
	if after.RecordsDeleted-stats.RecordsDeleted == 0 {
		t.Fatal("document delete freed no records")
	}
	if _, err := s.Lookup("x"); err == nil {
		t.Fatal("document still in catalog")
	}
}

func TestParseQuery(t *testing.T) {
	steps, err := ParseQuery("/PLAY/ACT[3]/SCENE[2]//SPEAKER")
	if err != nil {
		t.Fatal(err)
	}
	want := []Step{
		{Name: "PLAY"},
		{Name: "ACT", Pos: 3},
		{Name: "SCENE", Pos: 2},
		{Name: "SPEAKER", Descendant: true},
	}
	if len(steps) != len(want) {
		t.Fatalf("steps = %+v", steps)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Fatalf("step %d = %+v, want %+v", i, steps[i], want[i])
		}
	}
	for _, bad := range []string{"", "PLAY", "/", "//", "/PLAY[", "/PLAY[x]", "/PLAY[0]", "/PLAY//"} {
		if _, err := ParseQuery(bad); err == nil {
			t.Errorf("ParseQuery(%q) succeeded", bad)
		}
	}
}

func TestQueriesTreeMode(t *testing.T) {
	s, _ := newDocStore(t, 512, core.Config{})
	if _, err := s.ImportXML("p", strings.NewReader(play)); err != nil {
		t.Fatal(err)
	}
	queryTests(t, s, "p")
}

func TestQueriesFlatMode(t *testing.T) {
	s, _ := newDocStore(t, 512, core.Config{})
	if _, err := s.ImportFlat("p", strings.NewReader(play)); err != nil {
		t.Fatal(err)
	}
	queryTests(t, s, "p")
}

// queryTests runs identical assertions against either storage mode.
func queryTests(t *testing.T, s *Store, doc string) {
	t.Helper()
	// All speakers anywhere.
	res, err := s.Query(doc, "/PLAY//SPEAKER")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range res {
		txt, err := r.Text()
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, txt)
	}
	if strings.Join(names, ",") != "ALPHA,BETA,GAMMA,DELTA,EPSILON" {
		t.Fatalf("speakers = %v", names)
	}

	// Positional: speakers of act 1, scene 1 only.
	res, err = s.Query(doc, "/PLAY/ACT[1]/SCENE[1]//SPEAKER")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("act1 scene1 speakers: %d", len(res))
	}

	// Query 2 shape: first speech of every scene.
	res, err = s.Query(doc, "//SCENE/SPEECH[1]")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("first speeches: %d, want 3", len(res))
	}
	m, err := res[0].Markup()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "<SPEAKER>ALPHA</SPEAKER>") || !strings.HasPrefix(m, "<SPEECH>") {
		t.Fatalf("markup = %s", m)
	}

	// Query 3 shape: the opening speech.
	res, err = s.Query(doc, "/PLAY/ACT[1]/SCENE[1]/SPEECH[1]")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("opening speech matches: %d", len(res))
	}
	txt, _ := res[0].Text()
	if !strings.Contains(txt, "first line of one one") {
		t.Fatalf("opening speech text = %q", txt)
	}

	// Wildcard and misses.
	res, err = s.Query(doc, "/PLAY/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 { // TITLE + 2 ACTs
		t.Fatalf("/PLAY/*: %d", len(res))
	}
	res, err = s.Query(doc, "/NOPE//SPEAKER")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("query for absent root matched %d", len(res))
	}
	res, err = s.Query(doc, "/PLAY/ACT[9]")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("out-of-range position matched %d", len(res))
	}
}

func TestLongTextChunking(t *testing.T) {
	s, _ := newDocStore(t, 512, core.Config{})
	long := strings.Repeat("the quick brown fox jumps over the lazy dog. ", 100)
	src := "<DOC><P>" + long + "</P></DOC>"
	if _, err := s.ImportXML("long", strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query("long", "/DOC/P")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("matches: %d", len(res))
	}
	txt, err := res[0].Text()
	if err != nil {
		t.Fatal(err)
	}
	if txt != long {
		t.Fatalf("long text mangled: %d vs %d bytes", len(txt), len(long))
	}
	tree, _ := s.Tree("long")
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFlatModeRoundTrip(t *testing.T) {
	s, _ := newDocStore(t, 512, core.Config{})
	if _, err := s.ImportFlat("f", strings.NewReader(play)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := s.ExportXML("f", &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != play {
		t.Fatal("flat mode did not preserve the exact byte stream")
	}
	// Malformed XML is rejected at flat import.
	if _, err := s.ImportFlat("bad", strings.NewReader("<a><b></a>")); err == nil {
		t.Fatal("malformed flat import succeeded")
	}
}

func TestConvertBetweenModes(t *testing.T) {
	s, _ := newDocStore(t, 512, core.Config{})
	if _, err := s.ImportXML("p", strings.NewReader(play)); err != nil {
		t.Fatal(err)
	}
	before, err := s.Query("p", "//SPEAKER")
	if err != nil {
		t.Fatal(err)
	}
	// Tree -> flat.
	if err := s.Convert("p", ModeFlat); err != nil {
		t.Fatal(err)
	}
	info, _ := s.Lookup("p")
	if info.Mode != ModeFlat {
		t.Fatalf("mode = %v", info.Mode)
	}
	mid, err := s.Query("p", "//SPEAKER")
	if err != nil {
		t.Fatal(err)
	}
	if len(mid) != len(before) {
		t.Fatalf("matches after to-flat: %d, want %d", len(mid), len(before))
	}
	// Flat -> tree.
	if err := s.Convert("p", ModeTree); err != nil {
		t.Fatal(err)
	}
	info, _ = s.Lookup("p")
	if info.Mode != ModeTree {
		t.Fatalf("mode = %v", info.Mode)
	}
	tree, err := s.Tree("p")
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	after, err := s.Query("p", "//SPEAKER")
	if err != nil {
		t.Fatal(err)
	}
	for i := range after {
		a, _ := after[i].Markup()
		b, _ := before[i].Markup()
		if a != b {
			t.Fatalf("match %d changed across conversions", i)
		}
	}
	// Converting to the current mode is a no-op.
	if err := s.Convert("p", ModeTree); err != nil {
		t.Fatal(err)
	}
	if err := s.Convert("nope", ModeFlat); err == nil {
		t.Fatal("convert of missing doc succeeded")
	}
}

// TestProxyCyclePageOwnersAndDelete: over a document whose record graph
// has a cycle — the record behind the root record's first proxy rewritten
// to end in a proxy back to the root — PageOwners, which the scrubber
// attributes damaged pages with, and Delete return an error instead of
// following the proxies until the stack overflows.
func TestProxyCyclePageOwnersAndDelete(t *testing.T) {
	s, _ := newDocStore(t, 512, core.Config{})
	var src strings.Builder
	src.WriteString("<doc>")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&src, "<t>%-40s</t>", fmt.Sprint("text ", i))
	}
	src.WriteString("</doc>")
	info, err := s.ImportXML("d", strings.NewReader(src.String()))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.trees.LoadRecordForInspection(info.Root)
	if err != nil {
		t.Fatal(err)
	}
	child := records.NilRID
	rec.Root.Walk(func(n *noderep.Node) bool {
		if n.Kind == noderep.KindProxy && child.IsNil() {
			child = n.Target
		}
		return true
	})
	if child.IsNil() {
		t.Fatal("the root record holds no proxy")
	}
	crec, err := s.trees.LoadRecordForInspection(child)
	if err != nil {
		t.Fatal(err)
	}
	crec.Root.AppendChild(noderep.NewProxy(info.Root))
	body, err := noderep.Encode(crec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.trees.Records().Update(child, body); err != nil {
		t.Fatal(err)
	}
	s.trees.InvalidateCache()
	if _, err := s.PageOwners("d"); err == nil {
		t.Error("PageOwners over a proxy cycle succeeded")
	}
	if err := s.Delete("d"); err == nil {
		t.Error("Delete over a proxy cycle succeeded")
	}
}
