package natix

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"natix/internal/corpus"
	"natix/internal/xmlkit"
)

const othello = `<PLAY><TITLE>Othello</TITLE>
<ACT><TITLE>ACT I</TITLE>
<SCENE><TITLE>SCENE I</TITLE>
<SPEECH><SPEAKER>RODERIGO</SPEAKER><LINE>Tush! never tell me;</LINE></SPEECH>
<SPEECH><SPEAKER>IAGO</SPEAKER><LINE>'Sblood, but you will not hear me:</LINE></SPEECH>
</SCENE>
</ACT>
</PLAY>`

func TestOpenInMemoryImportQuery(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ImportXML("othello", strings.NewReader(othello)); err != nil {
		t.Fatal(err)
	}
	matches, err := db.Query("othello", "/PLAY//SPEAKER")
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 {
		t.Fatalf("matches = %d", len(matches))
	}
	txt, err := matches[1].Text()
	if err != nil || txt != "IAGO" {
		t.Fatalf("match = %q, %v", txt, err)
	}
	docs, err := db.Documents()
	if err != nil || len(docs) != 1 || docs[0].Name != "othello" {
		t.Fatalf("docs = %v, %v", docs, err)
	}
}

func TestFilePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plays.natix")
	db, err := Open(Options{Path: path, PageSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ImportXML("othello", strings.NewReader(othello)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Path: path, PageSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	var out bytes.Buffer
	if err := db2.ExportXML("othello", &out); err != nil {
		t.Fatal(err)
	}
	want, _ := xmlkit.ParseString(othello, xmlkit.ParseOptions{})
	got, err := xmlkit.ParseString(out.String(), xmlkit.ParseOptions{})
	if err != nil || !xmlkit.Equal(want.Root, got.Root) {
		t.Fatalf("document did not survive restart: %v\n%s", err, out.String())
	}
	// Page size mismatch is rejected.
	db2.Close()
	if _, err := Open(Options{Path: path, PageSize: 4096}); err == nil {
		t.Fatal("open with wrong page size succeeded")
	}
}

func TestDocumentEditing(t *testing.T) {
	db, err := Open(Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ImportXML("o", strings.NewReader(othello)); err != nil {
		t.Fatal(err)
	}
	doc, err := db.Document("o")
	if err != nil {
		t.Fatal(err)
	}
	before, err := doc.NodeCount()
	if err != nil {
		t.Fatal(err)
	}
	// Append a new speech to scene 1 of act 1: /0=TITLE /1=ACT;
	// ACT/1=SCENE; SCENE children: TITLE, SPEECH, SPEECH.
	scenePath := []int{1, 1}
	if err := doc.InsertElement(scenePath, -1, "SPEECH"); err != nil {
		t.Fatal(err)
	}
	speechPath := []int{1, 1, 3}
	if err := doc.InsertElement(speechPath, 0, "SPEAKER"); err != nil {
		t.Fatal(err)
	}
	if err := doc.InsertText([]int{1, 1, 3, 0}, 0, "BRABANTIO"); err != nil {
		t.Fatal(err)
	}
	if err := doc.Check(); err != nil {
		t.Fatal(err)
	}
	after, _ := doc.NodeCount()
	if after != before+3 {
		t.Fatalf("node count %d -> %d, want +3", before, after)
	}
	matches, _ := db.Query("o", "/PLAY//SPEAKER")
	if len(matches) != 3 {
		t.Fatalf("speakers = %d", len(matches))
	}
	// Delete the speech again.
	if err := doc.DeleteNode([]int{1, 1, 3}); err != nil {
		t.Fatal(err)
	}
	if n, _ := doc.NodeCount(); n != before {
		t.Fatalf("node count after delete = %d, want %d", n, before)
	}
}

func TestWalk(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	if err := db.ImportXML("o", strings.NewReader(othello)); err != nil {
		t.Fatal(err)
	}
	doc, err := db.Document("o")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	var texts int
	err = doc.Walk(func(path []int, name, text string) bool {
		if name != "" {
			names = append(names, name)
		} else {
			texts++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if names[0] != "PLAY" || names[1] != "TITLE" {
		t.Fatalf("walk order: %v", names[:2])
	}
	if texts != 7 {
		t.Fatalf("text nodes = %d, want 7", texts)
	}
}

func TestSplitMatrixPolicyEffect(t *testing.T) {
	// Standalone default must yield far more records than native.
	native, _ := Open(Options{PageSize: 2048})
	defer native.Close()
	separate, _ := Open(Options{PageSize: 2048, DefaultPolicy: Standalone})
	defer separate.Close()
	play := xmlkit.SerializeString(corpus.GeneratePlay(corpus.SmallSpec(1), 0))
	if err := native.ImportXML("p", strings.NewReader(play)); err != nil {
		t.Fatal(err)
	}
	if err := separate.ImportXML("p", strings.NewReader(play)); err != nil {
		t.Fatal(err)
	}
	nd, _ := native.Document("p")
	sd, _ := separate.Document("p")
	nRecs, err := nd.RecordCount()
	if err != nil {
		t.Fatal(err)
	}
	sRecs, err := sd.RecordCount()
	if err != nil {
		t.Fatal(err)
	}
	if sRecs < 10*nRecs {
		t.Fatalf("standalone records (%d) not ≫ native records (%d)", sRecs, nRecs)
	}
	if err := nd.Check(); err != nil {
		t.Fatal(err)
	}
	if err := sd.Check(); err != nil {
		t.Fatal(err)
	}
	// Both answer queries identically.
	qn, _ := native.QueryCount("p", "//SPEECH")
	qs, _ := separate.QueryCount("p", "//SPEECH")
	if qn != qs || qn == 0 {
		t.Fatalf("query disagreement: %d vs %d", qn, qs)
	}
}

func TestSetPolicyClustering(t *testing.T) {
	db, _ := Open(Options{PageSize: 512})
	defer db.Close()
	if err := db.SetPolicy("SPEECH", "SPEAKER", Cluster); err != nil {
		t.Fatal(err)
	}
	if err := db.SetTextPolicy("SPEAKER", Cluster); err != nil {
		t.Fatal(err)
	}
	play := xmlkit.SerializeString(corpus.GeneratePlay(corpus.SmallSpec(1), 0))
	if err := db.ImportXML("p", strings.NewReader(play)); err != nil {
		t.Fatal(err)
	}
	doc, _ := db.Document("p")
	if err := doc.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateDisk(t *testing.T) {
	db, err := Open(Options{SimulateDisk: true, PageSize: 2048, BufferBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ImportXML("o", strings.NewReader(othello)); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := db.SimStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Writes == 0 || st.Elapsed <= 0 {
		t.Fatalf("sim stats = %+v", st)
	}
	// SimulateDisk with a file store is rejected.
	if _, err := Open(Options{SimulateDisk: true, Path: filepath.Join(t.TempDir(), "x.natix")}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("SimulateDisk with file store: err = %v, want ErrBadOptions", err)
	}
	// SimStats without simulation is rejected.
	plain, _ := Open(Options{})
	defer plain.Close()
	if _, err := plain.SimStats(); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("SimStats without SimulateDisk: err = %v, want ErrBadOptions", err)
	}
}

// TestErrBadOptions pins the sentinel-wrapping contract enforced by
// the sentinelerr analyzer: options failures are matchable with
// errors.Is rather than string inspection.
func TestErrBadOptions(t *testing.T) {
	if _, err := Open(Options{PageSize: 1000}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("invalid page size: err = %v, want ErrBadOptions", err)
	}
}

// TestOpenRejectsBadSplitTarget: a split target outside [0,1) — NaN
// included, which slips past range checks written as two comparisons —
// fails Open instead of being replaced by the default or reaching the
// split descent. Zero still means the default.
func TestOpenRejectsBadSplitTarget(t *testing.T) {
	for _, target := range []float64{math.NaN(), -0.1, 1, 1.5, math.Inf(1)} {
		db, err := Open(Options{SplitTarget: target})
		if err == nil {
			db.Close()
		}
		if !errors.Is(err, ErrBadOptions) {
			t.Errorf("SplitTarget %v: err = %v, want ErrBadOptions", target, err)
		}
	}
	for _, target := range []float64{0, 0.2} {
		db, err := Open(Options{SplitTarget: target})
		if err != nil {
			t.Fatalf("SplitTarget %v: %v", target, err)
		}
		db.Close()
	}
}

func TestClosedDBErrors(t *testing.T) {
	db, _ := Open(Options{})
	db.Close()
	if err := db.ImportXML("x", strings.NewReader(othello)); err != ErrClosed {
		t.Fatalf("ImportXML after close: %v", err)
	}
	if _, err := db.Query("x", "/PLAY"); err != ErrClosed {
		t.Fatalf("Query after close: %v", err)
	}
	if _, err := db.Documents(); err != ErrClosed {
		t.Fatalf("Documents after close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestStats(t *testing.T) {
	db, _ := Open(Options{PageSize: 1024})
	defer db.Close()
	if err := db.ImportXML("o", strings.NewReader(othello)); err != nil {
		t.Fatal(err)
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.RecordsCreated == 0 || st.SpaceBytes == 0 || st.PageSize != 1024 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestManyDocuments(t *testing.T) {
	db, _ := Open(Options{PageSize: 2048})
	defer db.Close()
	spec := corpus.SmallSpec(3)
	for i := 0; i < spec.Plays; i++ {
		text := xmlkit.SerializeString(corpus.GeneratePlay(spec, i))
		if err := db.ImportXML(fmt.Sprintf("play-%d", i), strings.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	}
	docs, _ := db.Documents()
	if len(docs) != 3 {
		t.Fatalf("docs = %d", len(docs))
	}
	for _, d := range docs {
		n, err := db.QueryCount(d.Name, "//SPEAKER")
		if err != nil || n == 0 {
			t.Fatalf("%s: %d speakers, %v", d.Name, n, err)
		}
	}
	// Delete one; others unaffected.
	if err := db.Delete("play-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("play-1", "//SPEAKER"); err == nil {
		t.Fatal("query on deleted doc succeeded")
	}
	if n, _ := db.QueryCount("play-2", "//SPEAKER"); n == 0 {
		t.Fatal("sibling document damaged by delete")
	}
}

func TestValidateXML(t *testing.T) {
	valid := `<!DOCTYPE PLAY [
  <!ELEMENT PLAY (TITLE, ACT+)>
  <!ELEMENT TITLE (#PCDATA)>
  <!ELEMENT ACT (TITLE)>
]>
<PLAY><TITLE>t</TITLE><ACT><TITLE>a</TITLE></ACT></PLAY>`
	if msgs, err := ValidateXML(strings.NewReader(valid)); err != nil || msgs != nil {
		t.Fatalf("valid doc: %v, %v", msgs, err)
	}
	invalid := `<!DOCTYPE PLAY [
  <!ELEMENT PLAY (TITLE, ACT+)>
  <!ELEMENT TITLE (#PCDATA)>
  <!ELEMENT ACT (TITLE)>
]>
<PLAY><ACT><TITLE>a</TITLE></ACT></PLAY>`
	msgs, err := ValidateXML(strings.NewReader(invalid))
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) == 0 {
		t.Fatal("invalid document accepted")
	}
	if _, err := ValidateXML(strings.NewReader(`<a/>`)); err != ErrNoDTD {
		t.Fatalf("no-DTD doc: %v", err)
	}
}

func TestConvertPublicAPI(t *testing.T) {
	db, _ := Open(Options{PageSize: 1024})
	defer db.Close()
	if err := db.ImportXML("o", strings.NewReader(othello)); err != nil {
		t.Fatal(err)
	}
	if err := db.Convert("o", true); err != nil {
		t.Fatal(err)
	}
	docs, _ := db.Documents()
	if !docs[0].Flat {
		t.Fatal("document not flat after Convert")
	}
	if err := db.Convert("o", false); err != nil {
		t.Fatal(err)
	}
	n, err := db.QueryCount("o", "//SPEAKER")
	if err != nil || n != 2 {
		t.Fatalf("speakers after round trip = %d, %v", n, err)
	}
	doc, err := db.Document("o")
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Check(); err != nil {
		t.Fatal(err)
	}
}
