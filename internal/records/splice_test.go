package records

import (
	"bytes"
	"math/rand"
	"testing"

	"natix/internal/buffer"
	"natix/internal/pagedev"
	"natix/internal/segment"
	"natix/internal/wal"
)

// newBody is an Editor that hands Edit a prepared body: data, which
// differs from the stored one from byte from on and before that only in
// the two-byte fields at the offsets in fields.
type newBody struct {
	data   []byte
	from   int
	fields []int
}

func (e newBody) Edit([]byte) ([]byte, int, []int, bool) { return e.data, e.from, e.fields, true }

// newLoggedManager is newManager with a log attached and an operation
// open, so every page change goes through a logged update bracket.
func newLoggedManager(t *testing.T, pageSize int) (*Manager, *wal.Writer) {
	t.Helper()
	dev, err := pagedev.NewMem(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.New(dev, 128)
	if err != nil {
		t.Fatal(err)
	}
	w, err := wal.OpenWriter(wal.NewMemStorage(), wal.Options{PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	pool.AttachWAL(w)
	if _, err := w.Begin("test", 0); err != nil {
		t.Fatal(err)
	}
	seg, err := segment.Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	return New(seg), w
}

// TestSpliceAgainstModel splices records through Edit — told where the
// new body differs, as core's node edits are — on logged and unlogged
// stores, with the update brackets in checking mode: every declared
// window holds, the bodies read back as the model's, the splice refuses
// exactly when the page is out of room (and then changes nothing), and
// Update takes over with a move.
func TestSpliceAgainstModel(t *testing.T) {
	defer buffer.SetWindowCheck(buffer.SetWindowCheck(true))
	for _, logged := range []bool{false, true} {
		m := newManager(t, 1024)
		if logged {
			m, _ = newLoggedManager(t, 1024)
		}
		rng := rand.New(rand.NewSource(31))
		model := map[RID][]byte{}
		var rids []RID
		for i := 0; i < 24; i++ {
			body := make([]byte, 40+rng.Intn(100))
			rng.Read(body)
			rid, err := m.Insert(body, 0)
			if err != nil {
				t.Fatal(err)
			}
			model[rid] = body
			rids = append(rids, rid)
		}
		spliced, refused := 0, 0
		for step := 0; step < 4000; step++ {
			rid := rids[rng.Intn(len(rids))]
			old := model[rid]
			from := rng.Intn(len(old) + 1)
			data := append([]byte(nil), old[:from]...)
			grow := rng.Intn(60) - 25
			if len(old) > 300 {
				grow = -grow
			}
			if grow >= 0 || len(old)+grow < 16 {
				data = append(append(data, make([]byte, max(grow, 0))...), old[from:]...)
			} else {
				data = append(data, old[min(from-grow, len(old)):]...)
			}
			rng.Read(data[from:])
			var fields []int
			for f := rng.Intn(12); f+2 <= from && len(fields) < 3; f += 2 + rng.Intn(30) {
				data[f]++
				data[f+1]--
				fields = append(fields, f)
			}
			ok, err := m.Edit(rid, newBody{data, from, fields})
			if err != nil {
				t.Fatalf("logged=%v step %d: %v", logged, step, err)
			}
			if ok {
				spliced++
			} else {
				refused++
				got, err := m.Read(rid)
				if err != nil || !bytes.Equal(got, old) {
					t.Fatalf("refused splice changed the record (err %v)", err)
				}
				if err := m.Update(rid, data); err != nil {
					t.Fatal(err)
				}
			}
			model[rid] = data
			if step%64 == 0 {
				for r, want := range model {
					got, err := m.Read(r)
					if err != nil || !bytes.Equal(got, want) {
						t.Fatalf("logged=%v step %d: record %s differs from the model (err %v)", logged, step, r, err)
					}
				}
			}
		}
		if spliced < 1000 || refused < 10 {
			t.Fatalf("logged=%v: %d spliced, %d refused", logged, spliced, refused)
		}
	}
}

// TestSpliceLogsLessThanUpdate: growing a record by a few bytes near its
// end logs those bytes, not the record.
func TestSpliceLogsLessThanUpdate(t *testing.T) {
	defer buffer.SetWindowCheck(buffer.SetWindowCheck(false))
	m, w := newLoggedManager(t, 8192)
	body := make([]byte, 4000)
	rand.New(rand.NewSource(5)).Read(body)
	rid, err := m.Insert(body, 0)
	if err != nil {
		t.Fatal(err)
	}
	grown := append(append(append([]byte(nil), body[:3900]...), "thirty bytes of a new text node"...), body[3900:]...)
	start := w.Stats().Bytes
	if ok, err := m.Edit(rid, newBody{grown, 3900, nil}); !ok || err != nil {
		t.Fatalf("Edit = %v, %v", ok, err)
	}
	if logged := w.Stats().Bytes - start; logged > 600 {
		t.Fatalf("splice of 31 bytes, 100 before the end of a 4000-byte record, logged %d bytes", logged)
	}
	got, _ := m.Read(rid)
	if !bytes.Equal(got, grown) {
		t.Fatal("spliced body reads back wrong")
	}
	if _, err := m.ReadInto(rid, make([]byte, 0, 16)); err != nil {
		t.Fatal(err)
	}
}

// logTail returns the records appended to the log since LSN from.
func logTail(t *testing.T, w *wal.Writer, from wal.LSN) []wal.Record {
	t.Helper()
	lsns, err := w.RecordLSNsSince(from)
	if err != nil {
		t.Fatal(err)
	}
	var out []wal.Record
	for _, lsn := range lsns {
		rec, err := w.ReadRecord(lsn)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
	return out
}

// TestSpliceLogsAShift: a splice that inserts or removes bytes and leaves
// the rest of the body alone — what a node edit is — logs one shift
// record that carries the inserted bytes and not the tail behind them;
// one that rewrites the tail logs its physical ranges as before; and the
// log, replayed from the page's image, rebuilds the page either way.
func TestSpliceLogsAShift(t *testing.T) {
	defer buffer.SetWindowCheck(buffer.SetWindowCheck(false))
	m, w := newLoggedManager(t, 8192)
	body := make([]byte, 4000)
	rand.New(rand.NewSource(5)).Read(body)
	rid, err := m.Insert(body, 0)
	if err != nil {
		t.Fatal(err)
	}
	node := []byte("thirty bytes of a new text node")
	grown := append(append(append([]byte(nil), body[:3000]...), node...), body[3000:]...)
	grown[10], grown[11] = 0xAB, 0xCD // an ancestor's size field
	from := w.End()
	if ok, err := m.Edit(rid, newBody{grown, 3000, []int{10}}); !ok || err != nil {
		t.Fatalf("Edit = %v, %v", ok, err)
	}
	recs := logTail(t, w, from)
	if len(recs) == 0 || recs[0].Type != wal.RecShift {
		t.Fatalf("insert logged %d records, the first a %s", len(recs), wal.TypeName(recs[0].Type))
	}
	sh := recs[0].Shift
	if sh.Delta != len(node) || sh.Tail != 1000 || !bytes.Equal(sh.Ins, node) {
		t.Fatalf("logged shift %+v", sh)
	}
	if logged := w.End() - from; logged > 200 {
		t.Fatalf("splice of %d bytes, 1000 before the end of a 4000-byte record, logged %d bytes", len(node), logged)
	}

	shrunk := append(append([]byte(nil), grown[:500]...), grown[700:]...)
	from = w.End()
	if ok, err := m.Edit(rid, newBody{shrunk, 500, nil}); !ok || err != nil {
		t.Fatalf("Edit = %v, %v", ok, err)
	}
	if recs := logTail(t, w, from); recs[0].Type != wal.RecShift || recs[0].Shift.Delta != -200 || !bytes.Equal(recs[0].Shift.Del, grown[500:700]) {
		t.Fatalf("removal logged %s %+v", wal.TypeName(recs[0].Type), recs[0].Shift)
	}

	// Not a shift: the tail is rewritten too.
	rewritten := append(append([]byte(nil), shrunk[:2000]...), node...)
	rewritten = append(rewritten, bytes.Repeat([]byte{7}, len(shrunk)-2000)...)
	from = w.End()
	if ok, err := m.Edit(rid, newBody{rewritten, 2000, nil}); !ok || err != nil {
		t.Fatalf("Edit = %v, %v", ok, err)
	}
	if recs := logTail(t, w, from); recs[0].Type != wal.RecUpdate {
		t.Fatalf("rewritten tail logged %s", wal.TypeName(recs[0].Type))
	}
	if got, _ := m.Read(rid); !bytes.Equal(got, rewritten) {
		t.Fatal("body reads back wrong")
	}

	page, ok, err := w.ReconstructPage(rid.Page, 8192)
	if err != nil || !ok {
		t.Fatalf("reconstruct: ok=%v err=%v", ok, err)
	}
	f, err := m.seg.Pool().Get(rid.Page)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	if !bytes.Equal(page[16:], f.Data()[16:]) {
		t.Fatal("the log does not replay to the page in the pool")
	}
}
