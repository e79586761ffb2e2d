package pathindex

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestWithinIsContainsFilter: on random sorted posting lists, Within
// returns exactly the postings a linear filter by Contains keeps — with
// repeated sequence numbers, contexts before, inside and past the list,
// empty subtrees, short and long lists, and a subtree end that
// overflows 32 bits.
func TestWithinIsContainsFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 2000; round++ {
		n, span := rng.Intn(40), uint32(1+rng.Intn(100))
		if round%10 == 0 { // long enough to gallop far
			n, span = rng.Intn(400), uint32(1+rng.Intn(1000))
		}
		list := make([]Posting, n)
		for i := range list {
			list[i].Seq = uint32(rng.Int63n(int64(span)))
			list[i].Local = uint16(i)
		}
		slices.SortStableFunc(list, func(a, b Posting) int { return int(a.Seq) - int(b.Seq) })
		for q := 0; q < 20; q++ {
			ctx := Posting{Seq: uint32(rng.Int63n(int64(span) + 5)), Size: uint32(rng.Intn(int(span) + 2))}
			if q == 0 {
				ctx.Seq, ctx.Size = uint32(rng.Intn(3)), math.MaxUint32-uint32(rng.Intn(3))
			}
			var want []Posting
			for _, p := range list {
				if ctx.Contains(p) {
					want = append(want, p)
				}
			}
			if got := Within(list, ctx); !slices.Equal(got, want) {
				t.Fatalf("Within(%v, seq %d size %d) = %v, filter gives %v", list, ctx.Seq, ctx.Size, got, want)
			}
		}
	}
}
