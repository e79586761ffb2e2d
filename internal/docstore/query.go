package docstore

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"natix/internal/core"
	"natix/internal/pathindex"
	"natix/internal/telemetry"
	"natix/internal/xmlkit"
)

// The path-query engine implements the fragment of XPath the paper's
// evaluation needs (§4.3): absolute paths of child steps (/A/B),
// descendant steps (//A), name tests, and 1-based positional predicates
// (A[3]). Query 1 is /PLAY/ACT[3]/SCENE[2]//SPEAKER, query 2 is
// //SCENE/SPEECH[1], query 3 is /PLAY/ACT[1]/SCENE[1]/SPEECH[1].
//
// One evaluator (machine.go) runs every query; the route — navigating
// the stored tree, its path index, or a flat-mode parse — only decides
// which source hands the evaluator its candidates. Materialized Query,
// counting QueryCount and the lazy Iter cursor drive the same machine,
// which is what makes their results identical.

// Step is one location step.
type Step struct {
	Descendant bool   // true for a // step
	Name       string // element name test; "*" matches any element
	Pos        int    // 1-based positional predicate; 0 selects all
}

// String renders the step as ParseQuery reads it: "/A", "//A[3]".
func (st Step) String() string {
	out := "/"
	if st.Descendant {
		out = "//"
	}
	out += st.Name
	if st.Pos > 0 {
		out += "[" + strconv.Itoa(st.Pos) + "]"
	}
	return out
}

// ErrBadQuery reports an unparsable path expression.
var ErrBadQuery = errors.New("docstore: malformed path query")

// ParseQuery parses a path expression into steps. What it accepts is
// exactly what Step.String renders, so an accepted expression is the
// concatenation of its steps' String: a position is decimal digits with
// no sign and no leading zero, and a name holds no ']' (a stray one is
// a misplaced predicate, not a name any document carries).
func ParseQuery(q string) ([]Step, error) {
	if q == "" || q[0] != '/' {
		return nil, fmt.Errorf("%w: %q (must start with /)", ErrBadQuery, q)
	}
	var steps []Step
	i := 0
	for i < len(q) {
		if q[i] != '/' {
			return nil, fmt.Errorf("%w: %q at offset %d", ErrBadQuery, q, i)
		}
		i++
		desc := false
		if i < len(q) && q[i] == '/' {
			desc = true
			i++
		}
		start := i
		for i < len(q) && q[i] != '/' && q[i] != '[' {
			i++
		}
		name := q[start:i]
		if name == "" {
			return nil, fmt.Errorf("%w: %q (empty step)", ErrBadQuery, q)
		}
		if strings.IndexByte(name, ']') >= 0 {
			return nil, fmt.Errorf("%w: %q (']' in step name %q)", ErrBadQuery, q, name)
		}
		step := Step{Descendant: desc, Name: name}
		if i < len(q) && q[i] == '[' {
			end := strings.IndexByte(q[i:], ']')
			if end < 0 {
				return nil, fmt.Errorf("%w: %q (unclosed predicate)", ErrBadQuery, q)
			}
			pos := q[i+1 : i+end]
			n, err := strconv.Atoi(pos)
			if err != nil || n < 1 || pos[0] < '1' || pos[0] > '9' {
				return nil, fmt.Errorf("%w: %q (bad position %q)", ErrBadQuery, q, pos)
			}
			step.Pos = n
			i += end + 1
		}
		steps = append(steps, step)
	}
	return steps, nil
}

// ctxErr reports a context's cancellation. The nil-Done fast path keeps
// queries under context.Background free of any per-page overhead.
func ctxErr(cx context.Context) error {
	if cx == nil || cx.Done() == nil {
		return nil
	}
	return cx.Err()
}

// Result is one query match. Exactly one of Ref (tree mode) or XML
// (flat mode) is meaningful. Results are usually consumed after the
// query returns (and releases the document lock), so Text and Markup
// re-take the document's read lock for the duration of each access —
// consuming matches stays safe while other goroutines query or mutate.
// Results produced by a live Iter skip the re-lock while the cursor
// still holds the document lock (re-locking there could deadlock behind
// a queued writer).
//
// A tree-mode match is read out straight from the record images: one
// walk that appends bytes into scratch taken from the Store's pool for
// the call (see readout.go), so a Result shares no state with the
// cursor that produced it and several may be read out at once, also
// while the cursor iterates. Text allocates at most its result string;
// Markup at most one allocation more.
//
// Ref holds the image of the match's own record, an immutable string no
// write changes. A literal or text-only match lies wholly in that image,
// so it is a snapshot: it reads the same however long it is kept, also
// after the node or the whole document is deleted, and takes no lock.
// Its Text allocates nothing: it is a substring of the image, and keeps
// the whole image (up to a page) alive as long as it is kept.
// Any other match reads the records below its own as they are when it
// is read out. Editing the document between query and read-out may
// invalidate it: once its own record has been written (or deleted), its
// proxies may name records since deleted, merged into their parent or
// reused, so a read-out after the query's lock was released first
// checks the record and fails with core.ErrStaleRef if it changed.
type Result struct {
	Mode Mode
	Doc  string // catalog name of the queried document
	Ref  core.ReadRef
	XML  *xmlkit.Node

	store *Store
	iter  *Iter // set on cursor-produced results, for lock elision
}

// view runs fn with the document readable: under the cursor's lock when
// one is still held (pinned for fn's duration, so a concurrent
// exhaustion cannot release it mid-access), otherwise under a freshly
// taken read lock once the match's record is found unchanged — a writer
// may have run since the query let go of the lock.
func (r Result) view(fn func() error) error {
	if r.iter != nil {
		if done, err := r.iter.withLock(fn); done {
			return err
		}
	}
	return r.store.View(r.Doc, func() error {
		if err := r.store.trees.CheckCurrent(&r.Ref); err != nil {
			return err
		}
		return fn()
	})
}

// Text returns the concatenated text content of the match.
func (r Result) Text() (string, error) {
	if r.Mode == ModeFlat {
		return r.XML.TextContent(), nil
	}
	if text, ok := r.Ref.TextOnly(); ok {
		// The common match: its text lies in the image Ref holds, which no
		// write changes, so there is no lock to take, no scratch to use and
		// nothing to copy.
		return text, nil
	}
	if r.Ref.IsLiteral() {
		text, _ := r.Ref.StringValue() // "" for a literal that is not character data
		return text, nil
	}
	var out string
	err := r.view(func() error {
		ro := r.store.getReadOut(nil)
		defer r.store.putReadOut(ro)
		var err error
		if ro.out, err = r.store.trees.AppendReadText(&r.Ref, ro.out); err != nil {
			return err
		}
		out = string(ro.out)
		return nil
	})
	return out, err
}

// Markup returns the XML serialization of the match ("recreates the
// textual representation", query 2).
func (r Result) Markup() (string, error) {
	if r.Mode == ModeFlat {
		return xmlkit.SerializeString(r.XML), nil
	}
	var out string
	read := func() error {
		ro := r.store.getReadOut(nil)
		defer r.store.putReadOut(ro)
		if err := r.store.writeXML(context.Background(), ro, &r.Ref); err != nil {
			return err
		}
		out = string(ro.out)
		return nil
	}
	if _, ok := r.Ref.TextOnly(); ok || r.Ref.IsLiteral() {
		// All it reads is the image Ref holds, which no write changes.
		return out, read()
	}
	err := r.view(read)
	return out, err
}

// Query parses a path expression and evaluates it against a document
// under context.Background, materializing every match.
func (s *Store) Query(name, query string) ([]Result, error) {
	steps, err := ParseQuery(query)
	if err != nil {
		return nil, err
	}
	return s.QuerySteps(context.Background(), name, steps)
}

// QuerySteps evaluates a parsed path expression against a document,
// materializing every match. For flat-mode documents the whole stream is
// read and parsed first — exactly the access cost the paper ascribes to
// flat storage ("Accessing the documents' structure is only possible
// through parsing", §1). For tree-mode documents the path index answers
// the query when one is stored and every step is a plain name test;
// otherwise the stored tree is navigated. The context is checked at
// page-fetch granularity, so a cancelled query stops loading records
// promptly.
func (s *Store) QuerySteps(cx context.Context, name string, steps []Step) ([]Result, error) {
	q, err := s.openQuery(cx, name, steps)
	if err != nil {
		return nil, err
	}
	defer q.lock.RUnlock()
	var out []Result
	_, err = q.drain("query", &out)
	return out, err
}

// QueryCount parses a path expression and counts its matches under
// context.Background.
func (s *Store) QueryCount(name, query string) (int, error) {
	steps, err := ParseQuery(query)
	if err != nil {
		return 0, err
	}
	return s.QueryCountSteps(context.Background(), name, steps)
}

// QueryCountSteps counts matches without materializing them. On the
// indexed route the path summary settles the count of a query without a
// positional predicate; any other is counted from the posting lists.
// Neither touches the matched records.
func (s *Store) QueryCountSteps(cx context.Context, name string, steps []Step) (int, error) {
	q, err := s.openQuery(cx, name, steps)
	if err != nil {
		return 0, err
	}
	defer q.lock.RUnlock()
	return q.drain("count", nil)
}

// query is an opened evaluation: the document read-locked and looked
// up, the steps compiled, the route fixed.
type query struct {
	s      *Store
	cx     context.Context
	lock   *sync.RWMutex // the document's, held for reading
	info   DocInfo
	frames []frame
	kind   EvaluatorKind
	idx    *pathindex.Handle // EvalIndexed only
}

// openQuery is the preamble of every query operation — Query, Count, a
// cursor, Explain: refuse a quarantined document and a cancelled
// context before any lock is taken, read-lock the document, look it up,
// and pick the route (indexFor is the one test). On success the caller
// owns q.lock.
func (s *Store) openQuery(cx context.Context, name string, steps []Step) (query, error) {
	if len(steps) == 0 {
		return query{}, fmt.Errorf("%w: empty query", ErrBadQuery)
	}
	if err := s.checkQuarantine(name); err != nil {
		return query{}, err
	}
	if err := ctxErr(cx); err != nil {
		return query{}, err
	}
	q := query{s: s, cx: cx, lock: s.lockFor(name)}
	q.lock.RLock()
	var ok bool
	if q.info, ok = s.lookup(name); !ok {
		q.lock.RUnlock()
		return query{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if q.info.Mode == ModeFlat {
		q.frames, q.kind = compile(steps, nil), EvalFlat
		return q, nil
	}
	q.frames, q.kind = compile(steps, s.dict), EvalScan
	var err error
	if q.idx, err = s.indexFor(q.info, q.frames); err != nil {
		q.lock.RUnlock()
		return query{}, err
	}
	if q.idx != nil {
		q.kind = EvalIndexed
	}
	return q, nil
}

// start counts the query under its route and builds the machine over
// the route's source. Nothing is read before the machine's first Next.
// An indexed query run as one scan (summaryPlan) gets one frame: its last
// step as //NAME, keeping the postings on the answer's summary paths.
func (q *query) start() matcher {
	s := q.s
	switch q.kind {
	case EvalFlat:
		s.flatQueries.Add(1)
		return newMachine(new(parsedWalk).reset(&parsedTree{s: s, blob: q.info.Root}, q.cx, len(q.frames)), q.frames)
	case EvalIndexed:
		s.indexedQueries.Add(1)
		src := &postings{trees: s.trees, cx: q.cx, idx: q.idx}
		frames := q.frames
		if p := s.planSummary(q.idx, frames, true); p.scan {
			s.summaryQueries.Add(1)
			frames = frames[len(frames)-1:]
			frames[0].Descendant = true
			if p.count == 0 {
				frames[0].postings = nil
			}
			src.frames = src.one[:]
			src.frames[0].keep = p.keep
		} else {
			src.frames = make([]postingFrame, len(frames))
		}
		return newMachine(src, frames)
	}
	s.scanQueries.Add(1)
	w, _ := s.scanPool.Get().(*recordWalk)
	if w == nil {
		w = &recordWalk{pool: &s.scanPool}
	}
	return newMachine(w.reset(recordTree{s: s, root: q.info.Root}, q.cx, len(q.frames)), q.frames)
}

// drain runs the query to exhaustion as operation op ("query" or
// "count"), appending the matches to *out when out is given — without
// one no match is materialized, and a count the path summary settles
// runs no machine at all — and returns their number.
func (q *query) drain(op string, out *[]Result) (n int, err error) {
	start := telemetry.Now()
	sp := q.s.startQueryOp(op, q.kind, q.info.Name)
	defer func() {
		sp.Add("matches", int64(n))
		q.s.queryHist(q.kind).Observe(int64(telemetry.Since(start)))
		sp.End()
	}()
	if out == nil && q.kind == EvalIndexed {
		if p := q.s.planSummary(q.idx, q.frames, false); p.exact {
			q.s.indexedQueries.Add(1)
			q.s.summaryQueries.Add(1)
			return int(p.count), nil
		}
	}
	m := q.start()
	defer m.release()
	var r *Result
	if out != nil {
		r = &Result{Doc: q.info.Name, store: q.s}
	}
	ok, err := m.match(r)
	for ; ok; ok, err = m.match(r) {
		n++
		if out != nil {
			*out = append(*out, *r)
		}
	}
	return n, err
}
