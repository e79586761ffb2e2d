package natix

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// TestColdPassCountsLoadWaitsAndClockProbes: two goroutines run the same
// queries over a cold store that spills a small pool, so their misses
// meet on pages and their evictions share the clock hand. Metrics
// carries buffer.load_waits (a Get that joined another goroutine's read
// of the page) and buffer.clock_probes (slots the hand passed), and the
// pool's accounting stays exact: every logical read is a hit, a joined
// read among them, or one device read.
func TestColdPassCountsLoadWaitsAndClockProbes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cold.natix")
	opts := Options{Path: path, PageSize: 2048, BufferBytes: 32 << 10}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a", "b", "c", "d"}
	for _, name := range names {
		mustImport(t, db, name, 40)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range []string{"//LINE", "/PLAY/SCENE/SPEECH/SPEAKER", "//STAGEDIR"} {
				for _, name := range names {
					if n, err := db.QueryCount(name, q); err != nil || n == 0 {
						t.Errorf("%s %s: %d, %v", name, q, n, err)
					}
				}
			}
		}()
	}
	wg.Wait()
	m, err := db.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	c := m.Counters
	for _, name := range []string{"buffer.load_waits", "buffer.clock_probes"} {
		if _, ok := c[name]; !ok {
			t.Fatalf("Metrics has no %s", name)
		}
	}
	t.Logf("load_waits %d, clock_probes %d, evictions %d, phys_reads %d", c["buffer.load_waits"], c["buffer.clock_probes"], c["buffer.evictions"], c["buffer.phys_reads"])
	if c["buffer.evictions"] == 0 || c["buffer.clock_probes"] < c["buffer.evictions"] {
		t.Fatalf("clock_probes %d, evictions %d: want evictions, each a probe at least", c["buffer.clock_probes"], c["buffer.evictions"])
	}
	if c["buffer.load_waits"] > c["buffer.hits"] {
		t.Fatalf("load_waits %d above hits %d: a joined read counts as a hit", c["buffer.load_waits"], c["buffer.hits"])
	}
	if got := c["buffer.logical_reads"] - c["buffer.hits"]; got != c["buffer.phys_reads"] {
		t.Fatalf("logical reads − hits = %d, phys_reads = %d: a joined read was counted as a miss, or read twice", got, c["buffer.phys_reads"])
	}
}

// TestQuarantineAndIndexCatalogBesideReaders: the quarantine set and the
// path-index catalog are immutable snapshots that every query and node
// edit reads without a lock, and that the serialized writer replaces.
// Readers query two documents while the writer imports a third (a
// path-index Put), quarantines it, lifts the quarantine and deletes it
// (a Drop), round after round. Every query gives the serial answer, and
// the third document is refused exactly while it is quarantined. Run
// under -race.
func TestQuarantineAndIndexCatalogBesideReaders(t *testing.T) {
	db, err := Open(Options{Path: filepath.Join(t.TempDir(), "q.natix"), PageSize: 2048, PathIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := map[string]int{}
	for _, name := range []string{"a", "b"} {
		mustImport(t, db, name, 3)
		if want[name], err = db.QueryCount(name, "//LINE"); err != nil {
			t.Fatal(err)
		}
	}
	var (
		wg   sync.WaitGroup
		done atomic.Bool
	)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				for name, n := range want {
					if got, err := db.QueryCount(name, "//LINE"); err != nil || got != n {
						t.Errorf("%s: %d, %v; want %d", name, got, err, n)
						return
					}
				}
			}
		}()
	}
	for round := 0; round < 20; round++ {
		name := fmt.Sprintf("c%d", round%3)
		mustImport(t, db, name, 1)
		db.store.Quarantine(name, "test")
		if _, err := db.QueryCount(name, "//LINE"); !errors.Is(err, ErrQuarantined) {
			t.Fatalf("round %d: query of quarantined %s: %v", round, name, err)
		}
		db.store.Unquarantine(name)
		if _, err := db.QueryCount(name, "//LINE"); err != nil {
			t.Fatalf("round %d: query after the quarantine lifted: %v", round, err)
		}
		if err := db.Delete(name); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()
	if q := db.store.QuarantinedDocs(); len(q) != 0 {
		t.Fatalf("quarantine set %v after every quarantine was lifted", q)
	}
}
