package buffer

import (
	"bytes"
	"math/rand"
	"testing"

	"natix/internal/wal"
)

// refDiffRanges is diffRanges as it stood before it went word-wise: one
// byte at a time. The differential test holds the production version to
// its exact output.
func refDiffRanges(old, new []byte) []wal.Range {
	var out []wal.Range
	n := len(old)
	for i := 0; i < n; {
		if old[i] == new[i] {
			i++
			continue
		}
		start := i
		end := i + 1
		for j := i + 1; j < n && j-end < mergeGap; j++ {
			if old[j] != new[j] {
				end = j + 1
			}
		}
		out = append(out, wal.Range{Off: start, Before: old[start:end], After: new[start:end]})
		i = end + mergeGap
		if i > n {
			i = n
		}
	}
	if len(out) > maxRanges {
		lo := out[0].Off
		hi := out[len(out)-1].Off + len(out[len(out)-1].Before)
		out = []wal.Range{{Off: lo, Before: old[lo:hi], After: new[lo:hi]}}
	}
	return out
}

func sameRanges(a, b []wal.Range) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Off != b[i].Off || !bytes.Equal(a[i].Before, b[i].Before) || !bytes.Equal(a[i].After, b[i].After) {
			return false
		}
	}
	return true
}

func checkDiff(t *testing.T, name string, old, new []byte) {
	t.Helper()
	want := refDiffRanges(old, new)
	got := diffRanges(old, new)
	if !sameRanges(got, want) {
		t.Fatalf("%s: diffRanges = %+v, reference = %+v", name, got, want)
	}
}

func TestDiffRangesMatchesReference(t *testing.T) {
	// Two differing bytes at every distance around mergeGap, at every
	// alignment of the first within a word, on lengths around a multiple
	// of 8 — the places where word and byte scans could part ways.
	for _, n := range []int{1, 7, 8, 9, 63, 64, 65, 100} {
		for first := 0; first < n && first < 24; first++ {
			for gap := 1; gap <= mergeGap+9; gap++ {
				old := make([]byte, n)
				new := make([]byte, n)
				new[first] = 1
				if second := first + gap; second < n {
					new[second] = 2
				}
				checkDiff(t, "pair", old, new)
			}
		}
	}
	// A difference in the last byte, the first byte, and both.
	for _, n := range []int{1, 5, 8, 13, 16, 4096} {
		old := make([]byte, n)
		new := make([]byte, n)
		new[n-1] = 9
		checkDiff(t, "last byte", old, new)
		new[0] = 9
		checkDiff(t, "both ends", old, new)
	}
	// The maxRanges collapse: one run too many, exactly enough, one fewer.
	for _, runs := range []int{maxRanges - 1, maxRanges, maxRanges + 1} {
		n := runs * (mergeGap + 8)
		old := make([]byte, n+3)
		new := make([]byte, n+3)
		for r := 0; r < runs; r++ {
			new[r*(mergeGap+8)+r%8] = 1
		}
		checkDiff(t, "collapse", old, new)
	}

	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(700)
		old := make([]byte, n)
		rng.Read(old)
		new := append([]byte(nil), old...)
		switch trial % 4 {
		case 0: // scattered single bytes
			for k := rng.Intn(12); k > 0; k-- {
				new[rng.Intn(n)] ^= byte(1 + rng.Intn(255))
			}
		case 1: // a rewritten span, as a record update leaves
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo+1)
			rng.Read(new[lo:hi])
		case 2: // a shifted tail: most bytes differ, some by chance do not
			lo := rng.Intn(n)
			copy(new[lo:], old[min(lo+1+rng.Intn(8), n):])
		case 3: // dense sparse flips: many short runs, some within mergeGap
			for i := rng.Intn(40); i < n; i += 1 + rng.Intn(2*mergeGap+4) {
				new[i] ^= 0x80
			}
		}
		checkDiff(t, "random", old, new)
	}
}

// BenchmarkDiffRanges diffs an 8 KB page in which one record-sized span
// changed — the shape of every logged record update.
func BenchmarkDiffRanges(b *testing.B) {
	old := make([]byte, 8192)
	rand.New(rand.NewSource(1)).Read(old)
	new := append([]byte(nil), old...)
	for i := 3000; i < 5300; i++ {
		new[i] ^= 0x55
	}
	b.SetBytes(int64(len(old)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(diffRanges(old, new)) != 1 {
			b.Fatal("want one range")
		}
	}
}
