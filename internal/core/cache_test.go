package core

import (
	"testing"

	"natix/internal/noderep"
	"natix/internal/pagedev"
	"natix/internal/records"
)

// TestRecordCacheSecondChance: a full cache shard replaces the first
// entry its clock hand finds unreferenced. A hit gives an entry one
// second chance, and the sweep spends it; a removed entry leaves no slot
// behind.
func TestRecordCacheSecondChance(t *testing.T) {
	c := newRecCache(2 * cacheShards) // two entries per shard
	img := &noderep.Image{}
	// Pages 0, 16, 32, ... hash to shard 0.
	rid := func(i int) records.RID { return records.RID{Page: pagedev.PageNo(16 * i)} }
	has := func(i int) bool {
		_, _, ok := c.image(rid(i))
		return ok
	}
	c.putImage(rid(0), img, rid(0))
	c.putImage(rid(1), img, rid(1))
	if !has(0) { // a hit: entry 0 referenced
		t.Fatal("entry 0 not cached")
	}
	c.putImage(rid(2), img, rid(2)) // passes 0, replaces 1
	if !has(2) || c.shardOf(rid(1)).entries[rid(1)] != nil {
		t.Fatal("entry 1 survived: the sweep did not replace the first unreferenced entry")
	}
	c.putImage(rid(3), img, rid(3)) // 0's chance was spent
	if c.shardOf(rid(0)).entries[rid(0)] != nil {
		t.Fatal("entry 0 survived a second sweep without a hit")
	}
	c.remove(rid(2))
	c.putImage(rid(4), img, rid(4)) // takes the removed entry's room
	if sh := c.shardOf(rid(3)); len(sh.ring) != 2 || sh.entries[rid(3)] == nil || sh.entries[rid(4)] == nil {
		t.Fatalf("after a remove and a put: %d entries in the ring, want entries 3 and 4", len(sh.ring))
	}
}
