package pathindex_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"natix/internal/corpus"
	"natix/internal/pathindex"
	"natix/internal/xmlkit"
)

var updateSeeds = flag.Bool("update-fuzz-seeds", false, "rewrite the fuzz seed corpus under testdata/fuzz")

// fuzzSeeds generates the seed corpus of the three fuzz targets, keyed
// by file path: every blob of the indexes of three corpus plays in one
// store at 2 KB pages — two bulk-loaded and one stored node by node and
// then reindexed — plus, for the last, its lists in the fixed-width
// layout.
func fuzzSeeds(t *testing.T) map[string]string {
	e := newDiffEnv(t, 2048, nil)
	spec := corpus.SmallSpec(3)
	if _, err := e.store.ImportXML("streamed", strings.NewReader(xmlkit.SerializeString(corpus.GeneratePlay(spec, 0)))); err != nil {
		t.Fatal(err)
	}
	if _, err := e.store.ImportXML("parsed", strings.NewReader(xmlkit.SerializeString(corpus.GeneratePlay(spec, 1)))); err != nil {
		t.Fatal(err)
	}
	storeBFS(t, e.store, "bfs", corpus.GeneratePlay(spec, 2))
	if err := e.store.ReindexDocument("bfs"); err != nil {
		t.Fatal(err)
	}

	seeds := make(map[string]string)
	add := func(target, name string, blob []byte, args ...uint32) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", blob)
		for _, a := range args {
			body += fmt.Sprintf("uint32(%d)\n", a)
		}
		seeds[filepath.Join("testdata", "fuzz", target, "seed-"+name)] = body
	}
	catalog, err := pathindex.RawCatalog(e.px)
	if err != nil {
		t.Fatal(err)
	}
	add("FuzzDecodeCatalog", "three-plays", catalog)
	for _, doc := range e.px.Names() {
		summary, lists, err := pathindex.RawIndex(e.px, doc)
		if err != nil {
			t.Fatal(err)
		}
		add("FuzzDecodeSummary", doc, summary)
		h, err := e.px.Get(doc)
		if err != nil {
			t.Fatal(err)
		}
		numPaths, nodes := uint32(h.NumPaths()), uint32(h.NumNodes())
		for label, blob := range lists {
			name, err := e.dict.Name(label)
			if err != nil {
				t.Fatal(err)
			}
			add("FuzzDecodePostings", doc+"-"+name+"-v3", append([]byte{pathindex.IndexVersion}, blob...), numPaths, nodes)
			if doc != "bfs" {
				continue
			}
			list, err := h.Postings(label)
			if err != nil {
				t.Fatal(err)
			}
			add("FuzzDecodePostings", doc+"-"+name+"-v2", pathindex.RefEncodeV2([]byte{pathindex.FixedVersion}, list), numPaths, nodes)
		}
	}
	return seeds
}

// TestFuzzSeedCorpus keeps the committed seed corpus equal to what the
// current codec writes (so the fuzzers start from accepted inputs, not
// from blobs of a layout since changed). Run with -update-fuzz-seeds
// after changing a layout.
func TestFuzzSeedCorpus(t *testing.T) {
	seeds := fuzzSeeds(t)
	old, err := filepath.Glob(filepath.Join("testdata", "fuzz", "*", "seed-*"))
	if err != nil {
		t.Fatal(err)
	}
	if *updateSeeds {
		for _, path := range old {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}
		for path, body := range seeds {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	if len(old) != len(seeds) {
		t.Errorf("%d seed files committed, %d generated (go test -run TestFuzzSeedCorpus -update-fuzz-seeds)", len(old), len(seeds))
	}
	for path, body := range seeds {
		if got, err := os.ReadFile(path); err != nil || string(got) != body {
			t.Errorf("%s is stale (go test -run TestFuzzSeedCorpus -update-fuzz-seeds): %v", path, err)
		}
	}
}
