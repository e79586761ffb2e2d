package compress

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// textPage builds a page-sized buffer of repetitive XML-ish text, the
// shape the victim cache sees for document content pages.
func textPage(n int) []byte {
	var b strings.Builder
	for b.Len() < n {
		b.WriteString("<LINE>But soft, what light through yonder window breaks</LINE>")
	}
	return []byte(b.String()[:n])
}

func TestFlateRoundTrip(t *testing.T) {
	f := NewFlate(DefaultLevel)
	src := textPage(8192)
	enc, err := f.Compress(nil, src)
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	if len(enc) >= len(src) {
		t.Fatalf("text page did not compress: %d -> %d", len(src), len(enc))
	}
	dst := make([]byte, len(src))
	if err := f.Decompress(dst, enc); err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("round trip mismatch")
	}
}

func TestFlateRejectsTruncatedAndTrailing(t *testing.T) {
	f := NewFlate(DefaultLevel)
	src := textPage(4096)
	enc, err := f.Compress(nil, src)
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	dst := make([]byte, len(src))
	if err := f.Decompress(dst, enc[:len(enc)/2]); err == nil {
		t.Fatal("truncated stream decoded without error")
	}
	if err := f.Decompress(dst[:len(dst)-1], enc); err == nil {
		t.Fatal("stream with trailing data decoded without error")
	}
}

func TestFlateScratchReuse(t *testing.T) {
	f := NewFlate(DefaultLevel)
	src := textPage(4096)
	// The returned encoding must reuse the caller's scratch when it is
	// large enough, so the admission path can recycle one buffer.
	scratch := make([]byte, 0, 8192)
	enc, err := f.Compress(scratch, src)
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	if cap(enc) > 0 && len(enc) <= cap(scratch) && &enc[:1][0] != &scratch[:1][0] {
		t.Error("compress did not reuse caller scratch")
	}
}

func TestIncompressiblePageGrows(t *testing.T) {
	// Random bytes inflate under deflate framing; the victim cache
	// relies on comparing lengths and keeping the raw form.
	f := NewFlate(DefaultLevel)
	rng := rand.New(rand.NewSource(7))
	src := make([]byte, 8192)
	rng.Read(src)
	enc, err := f.Compress(nil, src)
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	if len(enc) < len(src) {
		t.Skipf("random page unexpectedly compressed: %d -> %d", len(src), len(enc))
	}
}

func TestFlateConcurrent(t *testing.T) {
	f := NewFlate(DefaultLevel)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			src := textPage(4096)
			dst := make([]byte, len(src))
			var scratch []byte
			for i := 0; i < 50; i++ {
				// Perturb the page so encodings differ across iterations.
				src[rng.Intn(len(src))] = byte(rng.Intn(256))
				enc, err := f.Compress(scratch, src)
				if err != nil {
					t.Errorf("compress: %v", err)
					return
				}
				scratch = enc[:0]
				if err := f.Decompress(dst, enc); err != nil {
					t.Errorf("decompress: %v", err)
					return
				}
				if !bytes.Equal(dst, src) {
					t.Error("round trip mismatch")
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

func TestFlateDecompressSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under -race")
	}
	f := NewFlate(DefaultLevel)
	src := textPage(8192)
	enc, err := f.Compress(nil, src)
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	dst := make([]byte, len(src))
	// Warm the pools.
	for i := 0; i < 4; i++ {
		if err := f.Decompress(dst, enc); err != nil {
			t.Fatalf("decompress: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := f.Decompress(dst, enc); err != nil {
			t.Fatalf("decompress: %v", err)
		}
	})
	if allocs > 0 {
		t.Errorf("Decompress allocated %.1f times per run, want 0", allocs)
	}
}
