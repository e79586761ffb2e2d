package dict

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"natix/internal/buffer"
	"natix/internal/corpus"
	"natix/internal/pagedev"
	"natix/internal/records"
	"natix/internal/segment"
	"natix/internal/xmlkit"
)

func newEnv(t *testing.T) (*records.Manager, *buffer.Pool, *pagedev.Mem) {
	t.Helper()
	dev, err := pagedev.NewMem(4096)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.New(dev, 32)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := segment.Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	return records.New(seg), pool, dev
}

func TestReservedLabels(t *testing.T) {
	rm, _, _ := newEnv(t)
	d, err := Create(rm)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := d.Name(Text); n != "#text" {
		t.Fatalf("Name(Text) = %q", n)
	}
	if n, _ := d.Name(Scaffold); n != "#scaffold" {
		t.Fatalf("Name(Scaffold) = %q", n)
	}
	if _, err := d.Name(Invalid); err == nil {
		t.Fatal("Name(Invalid) succeeded")
	}
	if id, ok := d.Lookup("#text"); !ok || id != Text {
		t.Fatalf("Lookup(#text) = %d, %v", id, ok)
	}
}

func TestInternStableAndIdempotent(t *testing.T) {
	rm, _, _ := newEnv(t)
	d, _ := Create(rm)
	a, err := d.Intern("SPEECH")
	if err != nil {
		t.Fatal(err)
	}
	if a < FirstUserID {
		t.Fatalf("user id %d below FirstUserID", a)
	}
	b, _ := d.Intern("LINE")
	if a == b {
		t.Fatal("two labels share an id")
	}
	a2, _ := d.Intern("SPEECH")
	if a2 != a {
		t.Fatalf("re-intern changed id: %d -> %d", a, a2)
	}
	n, err := d.Name(a)
	if err != nil || n != "SPEECH" {
		t.Fatalf("Name(%d) = %q, %v", a, n, err)
	}
	if _, err := d.Intern(""); err == nil {
		t.Fatal("Intern(\"\") succeeded")
	}
}

func TestPersistenceAcrossOpen(t *testing.T) {
	rm, pool, _ := newEnv(t)
	d, _ := Create(rm)
	ids := map[string]LabelID{}
	for _, name := range []string{"PLAY", "ACT", "SCENE", "SPEECH", "SPEAKER", "LINE", "@id"} {
		id, err := d.Intern(name)
		if err != nil {
			t.Fatal(err)
		}
		ids[name] = id
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(rm)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != d.Len() {
		t.Fatalf("Len after open = %d, want %d", d2.Len(), d.Len())
	}
	for name, want := range ids {
		got, ok := d2.Lookup(name)
		if !ok || got != want {
			t.Fatalf("Lookup(%q) = %d, %v; want %d", name, got, ok, want)
		}
		n, err := d2.Name(want)
		if err != nil || n != name {
			t.Fatalf("Name(%d) = %q, %v", want, n, err)
		}
	}
	// New labels continue from the right id.
	id, err := d2.Intern("STAGEDIR")
	if err != nil {
		t.Fatal(err)
	}
	if int(id) != d.Len() {
		t.Fatalf("next id = %d, want %d", id, d.Len())
	}
}

func TestOpenWithoutCreateFails(t *testing.T) {
	rm, _, _ := newEnv(t)
	if _, err := Open(rm); err == nil {
		t.Fatal("Open on segment without dictionary succeeded")
	}
}

func TestManyLabelsGrowRecord(t *testing.T) {
	rm, pool, _ := newEnv(t)
	d, _ := Create(rm)
	for i := 0; i < 300; i++ {
		if _, err := d.Intern(fmt.Sprintf("ELEMENT-%04d", i)); err != nil {
			t.Fatalf("intern %d: %v", i, err)
		}
	}
	pool.FlushAll()
	d2, err := Open(rm)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != 300+len(reservedNames) {
		t.Fatalf("Len = %d", d2.Len())
	}
	id, ok := d2.Lookup("ELEMENT-0299")
	if !ok {
		t.Fatal("lost a label")
	}
	if n, _ := d2.Name(id); n != "ELEMENT-0299" {
		t.Fatalf("Name round trip = %q", n)
	}
}

// TestIsAttrBit: for every label of a dictionary holding a corpus play's
// element names and the attribute form of each, interned one by one and
// in a batch, the attribute bit equals the string test it replaces —
// before and after the dictionary is reopened from its blob.
func TestIsAttrBit(t *testing.T) {
	rm, pool, _ := newEnv(t)
	d, err := Create(rm)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	var collect func(n *xmlkit.Node)
	collect = func(n *xmlkit.Node) {
		if !n.IsText() {
			names[n.Name] = true
			for _, a := range n.Attrs {
				names[AttrPrefix+a.Name] = true
			}
		}
		for _, c := range n.Children {
			collect(c)
		}
	}
	collect(corpus.GeneratePlay(corpus.SmallSpec(1), 0))
	for name := range names {
		if _, err := d.Intern(name); err != nil {
			t.Fatal(err)
		}
	}
	b := d.NewBatch()
	for name := range names {
		if _, err := b.Intern(AttrPrefix + name); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(rm)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Dict{d, reopened} {
		attrs := 0
		for id := LabelID(1); int(id) < d.Len(); id++ {
			name, err := d.Name(id)
			if err != nil {
				t.Fatal(err)
			}
			attr, err := d.IsAttr(id)
			if err != nil || attr != strings.HasPrefix(name, AttrPrefix) {
				t.Fatalf("IsAttr(%d %q) = %v, %v", id, name, attr, err)
			}
			if attr {
				attrs++
			}
		}
		if attrs < len(names) || d.Len() < 2*len(names) {
			t.Fatalf("%d labels, %d of them attributes, from %d names", d.Len(), attrs, len(names))
		}
		for _, id := range []LabelID{Invalid, LabelID(d.Len())} {
			if _, err := d.IsAttr(id); !errors.Is(err, ErrUnknownID) {
				t.Fatalf("IsAttr(%d) = %v, want ErrUnknownID", id, err)
			}
		}
	}
}
