package docstore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"natix/internal/core"
	"natix/internal/noderep"
	"natix/internal/pathindex"
	"natix/internal/xmlkit"
)

// A cursor loads a record once per run of same-record postings (the
// walker returns at once when it is already on the record). These tests
// hold that to the tree route (treeread_test.go): every posting resolved
// to its node of the decoded records, and read out from there.

// genRuns builds a seeded document whose postings come in long
// same-record runs (speeches of many short LINEs) and whose nested A
// elements make "//A//B" emit one B once per enclosing A, so a run is
// left and re-entered by a duplicate.
func genRuns(rng *rand.Rand, items int) *xmlkit.Node {
	words := []string{"alpha", "a<b", "Tom & Jerry", "x", "a somewhat longer run of words"}
	leaf := func(name string) *xmlkit.Node {
		return xmlkit.NewElement(name, xmlkit.NewText(words[rng.Intn(len(words))]+fmt.Sprint(rng.Intn(1000))))
	}
	var nest func(depth int) *xmlkit.Node
	nest = func(depth int) *xmlkit.Node {
		a := xmlkit.NewElement("A")
		for i := 2 + rng.Intn(4); i > 0; i-- {
			switch k := rng.Intn(4); {
			case k == 0 && depth < 4:
				a.Append(nest(depth + 1))
			case k == 1:
				a.Append(leaf("NAME"))
			default:
				a.Append(leaf("B"))
			}
		}
		return a
	}
	root := xmlkit.NewElement("ROOT")
	for i := 0; i < items; i++ {
		if rng.Intn(4) == 0 {
			root.Append(nest(1))
			continue
		}
		sp := xmlkit.NewElement("SPEECH", leaf("NAME"))
		for j := 1 + rng.Intn(40); j > 0; j-- {
			sp.Append(leaf("LINE"))
		}
		if rng.Intn(5) == 0 {
			sp.Append(nest(2))
		}
		root.Append(sp)
	}
	return root
}

// runQueries are all index-answerable: a descendant name test, full
// child paths, positional steps, and nested descendant contexts.
var runQueries = []string{
	"//NAME",
	"//LINE",
	"/ROOT/SPEECH/LINE",
	"/ROOT/A/A/B",
	"/ROOT/SPEECH[3]/LINE",
	"//SPEECH/LINE[2]",
	"//LINE[2]",
	"//A//B",
	"//A//A//B",
	"//A/B[1]",
	"//SPEECH//A//NAME",
}

// runVariants stores model at 2 KB pages, indexed, under both
// split-matrix extremes × record cache on and off × bulk-loaded and
// BFS-built, and hands each store to fn.
func runVariants(t *testing.T, model *xmlkit.Node, fn func(t *testing.T, s *Store)) {
	for _, m := range splitExtremes {
		for _, cache := range []int{4096, 0} {
			for _, build := range []string{"bulk", "bfs"} {
				t.Run(fmt.Sprintf("%s/%s/cache%d", build, m.name, cache), func(t *testing.T) {
					s, _ := newDocStore(t, 2048, core.Config{Matrix: m.matrix(), CacheRecords: cache})
					enableIndex(t, s)
					if build == "bulk" {
						if _, err := s.ImportXML("d", strings.NewReader(xmlkit.SerializeString(model))); err != nil {
							t.Fatal(err)
						}
					} else {
						storeBFS(t, s, "d", model)
						if err := s.ReindexDocument("d"); err != nil {
							t.Fatal(err)
						}
					}
					fn(t, s)
				})
			}
		}
	}
}

// postingsOf returns the posting list the indexed evaluator streams for
// query, and its parsed steps.
func postingsOf(t *testing.T, s *Store, query string) ([]pathindex.Posting, []Step) {
	t.Helper()
	steps, err := ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.Lookup("d")
	if err != nil {
		t.Fatal(err)
	}
	frames := compile(steps, s.dict)
	idx, err := s.indexFor(info, frames)
	if err != nil || idx == nil {
		t.Fatalf("%s is not answered from the index (%v)", query, err)
	}
	m := newMachine(&postings{trees: s.trees, cx: context.Background(), idx: idx, frames: make([]postingFrame, len(frames))}, frames)
	var posts []pathindex.Posting
	ok, err := m.Next()
	for ; ok; ok, err = m.Next() {
		posts = append(posts, m.cur)
	}
	if err != nil {
		t.Fatal(err)
	}
	return posts, steps
}

// sameRecordRuns counts the maximal runs of adjacent postings in one
// record.
func sameRecordRuns(posts []pathindex.Posting) int {
	runs := 0
	for i, p := range posts {
		if i == 0 || p.RID != posts[i-1].RID {
			runs++
		}
	}
	return runs
}

// midRun returns an index strictly inside a same-record run of posts:
// its neighbours on both sides are in the same record.
func midRun(t *testing.T, posts []pathindex.Posting) int {
	t.Helper()
	for i := 1; i+1 < len(posts); i++ {
		if posts[i-1].RID == posts[i].RID && posts[i].RID == posts[i+1].RID {
			return i
		}
	}
	t.Fatal("no same-record run of three postings")
	return 0
}

// TestCursorResolveMatchesReference: over seeded documents × indexed
// queries × every store variant, the cursor and the eager Query yield
// the reference resolver's (record, facade index) sequence and the
// reference read-out's Text and Markup, byte for byte.
func TestCursorResolveMatchesReference(t *testing.T) {
	cx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		model := genRuns(rand.New(rand.NewSource(seed)), 80)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			longRuns, splitRuns := 0, 0
			runVariants(t, model, func(t *testing.T, s *Store) {
				for _, q := range runQueries {
					posts, steps := postingsOf(t, s, q)
					if len(posts) == 0 {
						t.Fatalf("%s: no matches — weak document", q)
					}
					seen := map[pathindex.Posting]bool{}
					for i, p := range posts {
						if i > 0 && p.RID == posts[i-1].RID {
							longRuns++
						}
						if seen[p] {
							splitRuns++ // a duplicate from a nested context
						}
						seen[p] = true
					}
					type want struct{ text, markup string }
					wants := make([]want, len(posts))
					resolve := refResolver(t, s, "d")
					for i, p := range posts {
						ref := resolve(p)
						var err error
						if wants[i].text, err = refTextContent(s, ref); err != nil {
							t.Fatal(err)
						}
						if wants[i].markup, err = refMarkup(s, ref); err != nil {
							t.Fatal(err)
						}
					}
					check := func(how string, i int, r Result) {
						t.Helper()
						if i >= len(posts) {
							t.Fatalf("%s %s: match %d past the %d postings", q, how, i, len(posts))
						}
						at, err := s.trees.RefByFacadeIndex(posts[i].RID, int(posts[i].Local))
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(r.Ref, at) {
							t.Fatalf("%s %s: match %d in record %s is not facade node (%s, %d)", q, how, i, r.Ref.RID(), posts[i].RID, posts[i].Local)
						}
						if got, err := r.Text(); err != nil || got != wants[i].text {
							t.Fatalf("%s %s: match %d Text = %q, %v\nreference %q", q, how, i, got, err, wants[i].text)
						}
						if got, err := r.Markup(); err != nil || got != wants[i].markup {
							t.Fatalf("%s %s: match %d Markup = %q, %v\nreference %q", q, how, i, got, err, wants[i].markup)
						}
					}

					it, err := s.QueryIter(cx, "d", steps, IterOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if !it.Indexed() {
						t.Fatalf("%s: cursor does not run on the index", q)
					}
					n := 0
					for ; it.Next(); n++ {
						check("cursor", n, it.Result())
					}
					if err := it.Close(); err != nil || n != len(posts) {
						t.Fatalf("%s cursor: %d matches, %v; reference %d", q, n, err, len(posts))
					}

					res, err := s.QuerySteps(cx, "d", steps)
					if err != nil || len(res) != len(posts) {
						t.Fatalf("%s eager: %d matches, %v; reference %d", q, len(res), err, len(posts))
					}
					for i, r := range res {
						check("eager", i, r)
					}
				}
			})
			// The documents must actually have produced the hard cases.
			if longRuns == 0 || splitRuns == 0 {
				t.Fatalf("weak documents: %d postings continue a run, %d duplicate an earlier one", longRuns, splitRuns)
			}
		})
	}
}

// TestCursorLoadsOneRecordPerRun: draining a "//LINE" cursor costs
// exactly one record load per same-record run of its posting list — the
// count is computed from the postings, not measured. A load is one
// logical read with the record cache or without it: a hit touches the
// record's page, a miss reads the body in one visit of it (bulk-loaded
// records are never forwarded).
func TestCursorLoadsOneRecordPerRun(t *testing.T) {
	model := genRuns(rand.New(rand.NewSource(4)), 120)
	for _, m := range splitExtremes {
		for _, cache := range []int{4096, 0} {
			t.Run(fmt.Sprintf("%s/cache%d", m.name, cache), func(t *testing.T) {
				s, pool := newDocStore(t, 2048, core.Config{Matrix: m.matrix(), CacheRecords: cache})
				enableIndex(t, s)
				if _, err := s.ImportXML("d", strings.NewReader(xmlkit.SerializeString(model))); err != nil {
					t.Fatal(err)
				}
				posts, steps := postingsOf(t, s, "//LINE")
				runs := sameRecordRuns(posts)
				if m.name == "other" && runs*4 > len(posts) {
					t.Fatalf("%d runs over %d postings: records hold too few LINEs to tell a run from a match", runs, len(posts))
				}
				// The first drain leaves the index handle, its posting list
				// and (when there is one) the record cache warm: the second
				// reads records only, and each from the cache.
				for pass := 0; pass < 2; pass++ {
					before := pool.Stats().LogicalReads
					it, err := s.QueryIter(context.Background(), "d", steps, IterOptions{})
					if err != nil {
						t.Fatal(err)
					}
					n := 0
					for it.Next() {
						n++
					}
					if err := it.Close(); err != nil || n != len(posts) {
						t.Fatalf("drained %d of %d matches, %v", n, len(posts), err)
					}
					if got := pool.Stats().LogicalReads - before; pass == 1 && got != int64(runs) {
						t.Fatalf("%d logical reads for %d matches in %d same-record runs, want %d", got, n, runs, runs)
					}
				}
			})
		}
	}
}

// TestCursorStopsMidRun: a limit, a cancelled context and a Close that
// fall inside a same-record run end the cursor there; and because the
// walker goes with the cursor, an edit of the very record it stood on
// is what the next cursor sees.
func TestCursorStopsMidRun(t *testing.T) {
	model := genRuns(rand.New(rand.NewSource(5)), 120)
	s, _ := newDocStore(t, 2048, core.Config{Matrix: core.AllOther(), CacheRecords: 4096})
	enableIndex(t, s)
	if _, err := s.ImportXML("d", strings.NewReader(xmlkit.SerializeString(model))); err != nil {
		t.Fatal(err)
	}
	posts, steps := postingsOf(t, s, "//LINE")
	mid := midRun(t, posts)
	texts := func(it *Iter, n int) []string {
		t.Helper()
		var out []string
		for len(out) < n && it.Next() {
			text, err := it.Result().Text()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, text)
		}
		return out
	}
	all, err := s.QuerySteps(context.Background(), "d", steps)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(all))
	for i, r := range all {
		if want[i], err = r.Text(); err != nil {
			t.Fatal(err)
		}
	}
	equal := func(how string, got, want []string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d matches, want %d", how, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: match %d is %q, want %q", how, i, got[i], want[i])
			}
		}
	}

	t.Run("limit", func(t *testing.T) {
		it, err := s.QueryIter(context.Background(), "d", steps, IterOptions{Limit: mid + 1})
		if err != nil {
			t.Fatal(err)
		}
		equal("limited cursor", texts(it, len(posts)), want[:mid+1])
		if it.Err() != nil || it.holdsLock() {
			t.Fatalf("after the limit: Err %v, holds lock %v", it.Err(), it.holdsLock())
		}
	})
	t.Run("cancel", func(t *testing.T) {
		cx, cancel := context.WithCancel(context.Background())
		defer cancel()
		it, err := s.QueryIter(cx, "d", steps, IterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		equal("cursor before cancel", texts(it, mid+1), want[:mid+1])
		cancel()
		if it.Next() || !errors.Is(it.Err(), context.Canceled) || it.holdsLock() {
			t.Fatalf("after cancel: Err %v, holds lock %v", it.Err(), it.holdsLock())
		}
	})
	t.Run("close-edit-reopen", func(t *testing.T) {
		it, err := s.QueryIter(context.Background(), "d", steps, IterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		equal("cursor before close", texts(it, mid+1), want[:mid+1])
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		// Prepend a text node to the LINE the cursor stood on: a rewrite
		// of the record the walker was over.
		path := nthPath(model, "LINE", mid)
		tree, err := s.Tree("d")
		if err != nil {
			t.Fatal(err)
		}
		err = s.Mutate("d", func() error {
			if err := s.PrepareMutation("d"); err != nil {
				return err
			}
			if err := tree.InsertChild(core.Path(path), 0, noderep.NewTextLiteral("EDITED ")); err != nil {
				return err
			}
			return s.FinishBulk("d", tree)
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ReindexDocument("d"); err != nil {
			t.Fatal(err)
		}
		edited := append([]string(nil), want...)
		edited[mid] = "EDITED " + edited[mid]
		it, err = s.QueryIter(context.Background(), "d", steps, IterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !it.Indexed() {
			t.Fatal("cursor after reindex does not run on the index")
		}
		equal("cursor after the edit", texts(it, len(posts)+1), edited)
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// nthPath returns the child-index path of the n-th element named name
// in document order (n from 0).
func nthPath(root *xmlkit.Node, name string, n int) []int {
	var found []int
	var walk func(node *xmlkit.Node, path []int) bool
	walk = func(node *xmlkit.Node, path []int) bool {
		if !node.IsText() && node.Name == name {
			if n == 0 {
				found = append([]int(nil), path...)
				return true
			}
			n--
		}
		for i, c := range node.Children {
			if walk(c, append(path, i)) {
				return true
			}
		}
		return false
	}
	walk(root, nil)
	return found
}
