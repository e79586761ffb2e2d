package natix

import (
	"strings"
	"testing"

	"natix/internal/buffer"
	"natix/internal/corpus"
	"natix/internal/records"
	"natix/internal/xmlkit"
)

// TestRecordHitChargesPool pins what a hit in the record caches costs in
// the buffer manager: the pages a read of the record would visit, each
// one logical read — a hit, or a physical read when the page was
// evicted. A hit that skipped the pool, or charged a page twice, fails
// here.
func TestRecordHitChargesPool(t *testing.T) {
	// delta runs fn and returns what it cost the pool.
	delta := func(t *testing.T, db *DB, fn func() error) buffer.Stats {
		t.Helper()
		before := db.pool.Stats()
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		after := db.pool.Stats()
		return buffer.Stats{
			LogicalReads: after.LogicalReads - before.LogicalReads,
			Hits:         after.Hits - before.Hits,
			PhysReads:    after.PhysReads - before.PhysReads,
		}
	}
	want := func(t *testing.T, what string, got buffer.Stats, logical, hits, phys int64) {
		t.Helper()
		if got.LogicalReads != logical || got.Hits != hits || got.PhysReads != phys {
			t.Errorf("%s: %d logical reads, %d hits, %d physical reads; want %d, %d, %d",
				what, got.LogicalReads, got.Hits, got.PhysReads, logical, hits, phys)
		}
	}
	// hits returns what fn cost the record caches: hits, misses.
	hits := func(t *testing.T, db *DB, fn func() error) (int64, int64) {
		t.Helper()
		before := db.store.Trees().Stats()
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		after := db.store.Trees().Stats()
		return after.CacheHits - before.CacheHits, after.CacheMisses - before.CacheMisses
	}

	// record reads record rid through both caches: the writer's decoded
	// tree (the decoded reference Root reads) and the readers' image.
	readTree := func(db *DB, rid records.RID) func() error {
		return func() error { _, err := db.store.Trees().OpenTree(rid).Root(); return err }
	}
	readImage := func(db *DB, rid records.RID) func() error {
		return func() error { _, err := db.store.Trees().ReadRoot(rid); return err }
	}

	t.Run("evicted", func(t *testing.T) {
		db, err := Open(Options{PageSize: 2048, BufferBytes: 16 * 2048})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.ImportXML("d", strings.NewReader("<r><a>one</a><b>two</b></r>")); err != nil {
			t.Fatal(err)
		}
		info, err := db.store.Lookup("d")
		if err != nil {
			t.Fatal(err)
		}
		rid := info.Root
		for name, read := range map[string]func() error{"tree": readTree(db, rid), "image": readImage(db, rid)} {
			if err := read(); err != nil { // cached from here on
				t.Fatal(err)
			}
			if h, m := hits(t, db, read); h != 1 || m != 0 {
				t.Fatalf("%s: a second read is %d hits, %d misses", name, h, m)
			}
			want(t, name+" hit, page resident", delta(t, db, read), 1, 1, 0)
			if err := db.pool.Clear(); err != nil {
				t.Fatal(err)
			}
			var h int64
			got := delta(t, db, func() (err error) { h, _ = hits(t, db, read); return nil })
			if h != 1 {
				t.Fatalf("%s: the read after the pool was cleared is not a cache hit", name)
			}
			want(t, name+" hit, page evicted", got, 1, 0, 1)
		}
	})

	t.Run("forwarded", func(t *testing.T) {
		db, err := Open(Options{PageSize: 2048, BufferBytes: 16 * 2048})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.ImportXML("d", strings.NewReader("<r><a/></r>")); err != nil {
			t.Fatal(err)
		}
		info, err := db.store.Lookup("d")
		if err != nil {
			t.Fatal(err)
		}
		rid := info.Root
		rm := db.store.Trees().Records()
		// Fill the record's page, so a grown record must move.
		free, err := rm.PageFreeBytes(rid.Page)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rm.Insert(make([]byte, free-64), rid.Page); err != nil {
			t.Fatal(err)
		}
		doc, err := db.Document("d")
		if err != nil {
			t.Fatal(err)
		}
		if err := doc.InsertText([]int{0}, 0, strings.Repeat("moved ", 40)); err != nil {
			t.Fatal(err)
		}
		body, err := rm.PageOf(rid)
		if err != nil {
			t.Fatal(err)
		}
		if body == rid.Page {
			t.Fatalf("record %s did not move off its page", rid)
		}
		for name, read := range map[string]func() error{"tree": readTree(db, rid), "image": readImage(db, rid)} {
			if err := read(); err != nil {
				t.Fatal(err)
			}
			want(t, name+" hit on a forwarded record", delta(t, db, read), 2, 2, 0)
			if err := db.pool.Clear(); err != nil {
				t.Fatal(err)
			}
			want(t, name+" hit on a forwarded record, pages evicted", delta(t, db, read), 2, 0, 2)
		}
	})

	t.Run("warm-queries", func(t *testing.T) {
		db, err := Open(Options{PageSize: 2048, PathIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		play := xmlkit.SerializeString(corpus.GeneratePlay(corpus.DefaultSpec(), 0))
		if err := db.ImportXML("play", strings.NewReader(play)); err != nil {
			t.Fatal(err)
		}
		pass := func() error {
			for _, q := range []string{"//SPEECH", "/PLAY/ACT[2]//LINE", "//PERSONA", "//SCENE[1]/TITLE", "//LINE[3]"} {
				ms, err := db.Query("play", q)
				if err != nil {
					return err
				}
				for _, m := range ms {
					if _, err := m.Markup(); err != nil {
						return err
					}
				}
			}
			return nil
		}
		if err := pass(); err != nil { // warm
			t.Fatal(err)
		}
		// The counts the same pass cost before the hits stopped pinning
		// and latching their pages: the accounting did not move.
		const logical = 663
		got := delta(t, db, pass)
		want(t, "warm query pass", got, logical, logical, 0)
	})
}
