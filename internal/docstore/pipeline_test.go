package docstore

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"natix/internal/buffer"
	"natix/internal/core"
	"natix/internal/dict"
	"natix/internal/pagedev"
	"natix/internal/pathindex"
	"natix/internal/records"
	"natix/internal/segment"
	"natix/internal/wal"
)

// walStore builds a WAL-backed store over an inspectable Mem device —
// the docstore-level equivalent of the facade's logged configuration.
func walStore(t *testing.T) (*Store, *buffer.Pool, *pagedev.Mem) {
	t.Helper()
	return walStoreWith(t, core.Config{})
}

// walStoreWith is walStore with the given tree storage configuration.
func walStoreWith(t *testing.T, cfg core.Config) (*Store, *buffer.Pool, *pagedev.Mem) {
	t.Helper()
	dev, err := pagedev.NewMem(2048)
	if err != nil {
		t.Fatal(err)
	}
	w, err := wal.OpenWriter(wal.NewMemStorage(), wal.Options{PageSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.New(dev, 256)
	if err != nil {
		t.Fatal(err)
	}
	pool.AttachWAL(w)
	if _, err := w.Begin("create", uint64(dev.NumPages())); err != nil {
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
	px, err := pathindex.Open(rm)
	if err != nil {
		t.Fatal(err)
	}
	s.EnablePathIndex(px)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	s.AttachWAL(w)
	return s, pool, dev
}

// devImage flushes the pool and snapshots every device page.
func devImage(t *testing.T, pool *buffer.Pool, dev *pagedev.Mem) []byte {
	t.Helper()
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	n := int(dev.NumPages())
	out := make([]byte, 0, n*dev.PageSize())
	page := make([]byte, dev.PageSize())
	for i := 0; i < n; i++ {
		if err := dev.Read(pagedev.PageNo(i), page); err != nil {
			t.Fatal(err)
		}
		out = append(out, page...)
	}
	return out
}

// requireUnchanged compares the store image against a pre-operation
// snapshot: every pre-existing page byte-identical, any pages the
// aborted operation grew the device by rolled back to zero. Bytes 4-16
// of each page header are masked: the checksum and page LSN are
// recovery bookkeeping that rollback legitimately re-stamps, not
// document content.
func requireUnchanged(t *testing.T, before, after []byte, pageSize int) {
	t.Helper()
	if len(after) < len(before) {
		t.Fatalf("device shrank: %d -> %d bytes", len(before), len(after))
	}
	for i := range before {
		if off := i % pageSize; off >= 4 && off < 16 {
			continue
		}
		if before[i] != after[i] {
			t.Fatalf("store changed at byte %d (page %d) after failed import", i, i/pageSize)
		}
	}
	for i := len(before); i < len(after); i++ {
		if off := i % pageSize; off >= 4 && off < 16 {
			continue
		}
		if after[i] != 0 {
			t.Fatalf("grown page area dirty at byte %d (page %d) after rollback", i, i/pageSize)
		}
	}
}

// bigDoc is large enough that the pipeline has packed (and the batch
// writer flushed) records before the failure point streams by.
func bigDoc(valid bool) string {
	var b strings.Builder
	b.WriteString("<doc>")
	for i := 0; i < 800; i++ {
		fmt.Fprintf(&b, "<item n=%q>payload %d %s</item>", fmt.Sprint(i), i, strings.Repeat("x", 40))
	}
	if !valid {
		b.WriteString("<unclosed>")
	}
	b.WriteString("</doc>")
	if !valid {
		return b.String()[:b.Len()-len("</doc>")]
	}
	return b.String()
}

func seedKeepDoc(t *testing.T, s *Store) string {
	t.Helper()
	src := bigDoc(true)
	if _, err := s.ImportXML("keep", strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := s.ExportXML("keep", &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// verifyIntact re-checks the pre-existing document and that the store
// still accepts work after the failed import.
func verifyIntact(t *testing.T, s *Store, keepXML string, absent ...string) {
	t.Helper()
	for _, name := range absent {
		if _, ok := s.lookup(name); ok {
			t.Fatalf("failed import left %q in the catalog", name)
		}
	}
	var out strings.Builder
	if err := s.ExportXML("keep", &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != keepXML {
		t.Fatal("pre-existing document altered by failed import")
	}
	if _, err := s.ImportXML("after", strings.NewReader("<ok><x>1</x></ok>")); err != nil {
		t.Fatalf("store refuses imports after rollback: %v", err)
	}
}

// TestPipelineParserErrorRollsBack: a parse error in the producer stage
// must fail the import and leave the store byte-identical.
func TestPipelineParserErrorRollsBack(t *testing.T) {
	s, pool, dev := walStore(t)
	keepXML := seedKeepDoc(t, s)
	before := devImage(t, pool, dev)

	if _, err := s.ImportXML("bad", strings.NewReader(bigDoc(false))); err == nil {
		t.Fatal("malformed document imported without error")
	}
	requireUnchanged(t, before, devImage(t, pool, dev), 2048)
	verifyIntact(t, s, keepXML, "bad")
}

// cancelReader cancels a context once n bytes have been read — a
// deterministic mid-pipeline cancellation while the parser is still
// producing.
type cancelReader struct {
	r      io.Reader
	n      int
	cancel context.CancelFunc
	once   sync.Once
	read   int
}

func (c *cancelReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.read += n
	if c.read > c.n {
		c.once.Do(c.cancel)
	}
	return n, err
}

// TestPipelineCancellationRollsBack: cancelling the context mid-stream
// must abort the pipeline (producer and packer both unwind) and roll
// the store back byte-identically.
func TestPipelineCancellationRollsBack(t *testing.T) {
	s, pool, dev := walStore(t)
	keepXML := seedKeepDoc(t, s)
	before := devImage(t, pool, dev)

	cx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := bigDoc(true)
	r := &cancelReader{r: strings.NewReader(src), n: len(src) / 2, cancel: cancel}
	if _, err := s.ImportXMLContext(cx, "cancelled", r); err == nil {
		t.Fatal("cancelled import reported success")
	} else if ctxErr(cx) == nil {
		t.Fatal("context not cancelled — test exercised nothing")
	}
	requireUnchanged(t, before, devImage(t, pool, dev), 2048)
	verifyIntact(t, s, keepXML, "cancelled")
}

// TestBatchPartialShardRollsBack: in a sharded batch where one document
// is malformed, the healthy shards have already packed and written
// records when the batch fails — the WAL rollback must erase all of it.
func TestBatchPartialShardRollsBack(t *testing.T) {
	s, pool, dev := walStore(t)
	keepXML := seedKeepDoc(t, s)
	before := devImage(t, pool, dev)

	docs := []ImportDoc{
		{Name: "a", R: strings.NewReader(bigDoc(true))},
		{Name: "b", R: strings.NewReader(bigDoc(true))},
		{Name: "c", R: strings.NewReader(bigDoc(true))},
		{Name: "bad", R: strings.NewReader(bigDoc(false))},
	}
	if _, err := s.ImportXMLBatch(context.Background(), docs, 2); err == nil {
		t.Fatal("batch with malformed member imported without error")
	}
	requireUnchanged(t, before, devImage(t, pool, dev), 2048)
	verifyIntact(t, s, keepXML, "a", "b", "c", "bad")
}

// TestBatchMatchesSerial: the sharded batch import must produce exports
// byte-identical to one-by-one serial imports of the same corpus, for
// every document shape.
func TestBatchMatchesSerial(t *testing.T) {
	shapes := []string{"deep", "wide", "mixedText", "attrHeavy"}
	serial, _ := newDocStore(t, 2048, core.Config{})
	parallel, _ := newDocStore(t, 2048, core.Config{})

	var docs []ImportDoc
	for _, shape := range shapes {
		if _, err := serial.ImportXML(shape, strings.NewReader(genXML(shape))); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, ImportDoc{Name: shape, R: strings.NewReader(genXML(shape))})
	}
	if _, err := parallel.ImportXMLBatch(context.Background(), docs, len(docs)); err != nil {
		t.Fatal(err)
	}
	for _, shape := range shapes {
		var sOut, pOut strings.Builder
		if err := serial.ExportXML(shape, &sOut); err != nil {
			t.Fatal(err)
		}
		if err := parallel.ExportXML(shape, &pOut); err != nil {
			t.Fatal(err)
		}
		if sOut.String() != pOut.String() {
			t.Errorf("%s: batch import export differs from serial", shape)
		}
		tree, err := parallel.Tree(shape)
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Errorf("%s: batch-imported tree invariants: %v", shape, err)
		}
	}
}
