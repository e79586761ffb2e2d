package records

import (
	"bytes"
	"errors"
	"testing"

	"natix/internal/pagedev"
)

// forwarded inserts a record and moves its body off its home page, so
// its home slot holds a forwarding stub.
func forwarded(t *testing.T, m *Manager) RID {
	t.Helper()
	rid, err := m.Insert(bytes.Repeat([]byte{1}, 900), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Insert(bytes.Repeat([]byte{2}, 80), rid.Page); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(rid, bytes.Repeat([]byte{3}, 950)); err != nil {
		t.Fatal(err)
	}
	if p, err := m.PageOf(rid); err != nil || p == rid.Page {
		t.Fatalf("record %s did not move: page %d, %v", rid, p, err)
	}
	return rid
}

// flipFirst is an Editor that flips the first byte of the body.
type flipFirst struct{}

func (flipFirst) Edit(body []byte) ([]byte, int, []int, bool) {
	body[0] ^= 0xFF
	return body, 0, nil, true
}

// TestRecordAccessVisitsOnce pins the accounting rule: an access to a
// record costs one logical read per page its body lies on — 1 for a
// record on its home page, 2 for a forwarded one (home, then body) —
// and no physical read when those pages are resident. PageOf reads
// only the home page. A write that can change the page's free bytes
// then tells the free-space inventory, one more logical read of the
// inventory page after the body's page is let go; Delete of a
// forwarded record also deletes the stub, a visit of the home page
// and an inventory update of their own.
func TestRecordAccessVisitsOnce(t *testing.T) {
	same := func(n int) []byte { return bytes.Repeat([]byte{5}, n) }
	for _, kind := range []string{"home", "forwarded"} {
		t.Run(kind, func(t *testing.T) {
			m := newManager(t, 1024)
			var rid RID
			var size, pages int
			if kind == "home" {
				var err error
				if rid, err = m.Insert(same(100), 0); err != nil {
					t.Fatal(err)
				}
				size, pages = 100, 1
			} else {
				rid, size, pages = forwarded(t, m), 950, 2
			}
			const inventory = 1
			steps := []struct {
				name  string
				reads int
				do    func() error
			}{
				{"Read", pages, func() error { _, err := m.Read(rid); return err }},
				{"ReadInto", pages, func() error { _, err := m.ReadInto(rid, nil); return err }},
				{"ReadString", pages, func() error { _, _, err := m.ReadString(rid); return err }},
				{"Size", pages, func() error { _, err := m.Size(rid); return err }},
				{"VerifyRID", pages, func() error { return m.VerifyRID(rid) }},
				{"PageOf", 1, func() error { _, err := m.PageOf(rid); return err }},
				{"View", pages, func() error {
					var v View
					if err := m.View(rid, &v); err != nil {
						return err
					}
					v.Done()
					return nil
				}},
				{"Patch", pages, func() error { return m.Patch(rid, 1, []byte{7, 7}) }},
				{"Update", pages + inventory, func() error { return m.Update(rid, same(size)) }},
				{"Edit", pages + inventory, func() error {
					ok, err := m.Edit(rid, flipFirst{})
					if err == nil && !ok {
						err = errors.New("refused")
					}
					return err
				}},
				{"Delete", pages + inventory + 2*(pages-1), func() error { return m.Delete(rid) }},
			}
			pool := m.Segment().Pool()
			for _, st := range steps {
				before := pool.Stats()
				if err := st.do(); err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
				after := pool.Stats()
				if got := after.LogicalReads - before.LogicalReads; got != int64(st.reads) {
					t.Errorf("%s: %d logical reads, want %d", st.name, got, st.reads)
				}
				if got := after.PhysReads - before.PhysReads; got != 0 {
					t.Errorf("%s: %d physical reads of resident pages", st.name, got)
				}
			}
		})
	}
}

// pageImages copies every page of the store as the pool holds it.
func pageImages(t *testing.T, m *Manager) [][]byte {
	t.Helper()
	var out [][]byte
	for p := pagedev.PageNo(0); p < m.Segment().NumPages(); p++ {
		f, err := m.Segment().Pool().Get(p)
		if err != nil {
			t.Fatal(err)
		}
		f.RLatch()
		out = append(out, append([]byte(nil), f.Data()...))
		f.RUnlatch()
		f.Release()
	}
	return out
}

// TestStubToStubRefused: a forwarding stub that names another stub is a
// corrupt chain (chains are one hop). Every entry point that reaches the
// body refuses it with ErrCorrupt and leaves every page as it was — the
// scrubber's VerifyRID among them.
func TestStubToStubRefused(t *testing.T) {
	m := newManager(t, 1024)
	a, b := forwarded(t, m), forwarded(t, m)
	if err := m.patchStub(a, b); err != nil {
		t.Fatal(err)
	}
	want := pageImages(t, m)
	body := bytes.Repeat([]byte{6}, 40)
	for _, c := range []struct {
		name string
		do   func() error
	}{
		{"Read", func() error { _, err := m.Read(a); return err }},
		{"ReadString", func() error { _, _, err := m.ReadString(a); return err }},
		{"VerifyRID", func() error { return m.VerifyRID(a) }},
		{"Patch", func() error { return m.Patch(a, 0, []byte{7, 7}) }},
		{"Update", func() error { return m.Update(a, body) }},
		{"Delete", func() error { return m.Delete(a) }},
		{"Edit", func() error { _, err := m.Edit(a, flipFirst{}); return err }},
	} {
		if err := c.do(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s through a stub to a stub: %v, want ErrCorrupt", c.name, err)
		}
		got := pageImages(t, m)
		if len(got) != len(want) {
			t.Fatalf("%s: %d pages, was %d", c.name, len(got), len(want))
		}
		for p := range want {
			if !bytes.Equal(got[p], want[p]) {
				t.Fatalf("%s changed page %d", c.name, p)
			}
		}
	}
	// The record the stub wrongly names is intact.
	if got, err := m.Read(b); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{3}, 950)) {
		t.Fatalf("record %s after the refusals: %v", b, err)
	}
}
