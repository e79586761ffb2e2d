package main

import (
	"fmt"
	"strings"
	"time"

	"natix"
	"natix/internal/corpus"
)

// edit_incr: the paper's §3 insert-and-split algorithm in its Figure 9
// "incremental" order. One writer builds plays node by node in binary-
// tree BFS order, each node one logged operation, and now and then
// deletes and re-inserts the node it just added; one reader queries
// never-edited plays of the same store until the writer stops.
//
// NoSync is stated policy: a per-operation fsync would be about nine
// tenths of the operation here and measures the sandbox's filesystem,
// not the program.

func editOpts(sc scale) storeOpts { return storeOpts{PoolBytes: sc.SpillBytes, NoSync: true} }

// reinsertShare is the share of inserts followed by a delete and a
// re-insert of the same leaf.
const reinsertShare = 0.01

type editEnv struct {
	c    *config
	in   *inputs
	db   *natix.DB
	prep prepared
	ops  map[int][]corpus.InsertOp // BFS op list per play, built on first use
	// built maps every document the writer completed to its corpus play.
	built map[string]int
}

func (e *editEnv) storePath() string { return e.c.path("edit.natix") }

func setupEdit(c *config, in *inputs, tracing bool) (env, error) {
	e := &editEnv{c: c, in: in, ops: map[int][]corpus.InsertOp{}, built: map[string]int{}}
	removeStore(e.storePath())
	db, err := editOpts(c.scale).open(e.storePath(), tracing)
	if err != nil {
		return nil, err
	}
	e.db = db
	if err := importDocs(db, in, c.scale.ReaderDocs); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.Flush(); err != nil {
		db.Close()
		return nil, err
	}
	if e.prep, err = prepare(db); err != nil {
		db.Close()
		return nil, err
	}
	return e, nil
}

func (e *editEnv) close() error { return e.db.Close() }

func (e *editEnv) opsFor(play int) []corpus.InsertOp {
	if _, ok := e.ops[play]; !ok {
		e.ops[play] = corpus.BinaryBFSOps(e.in.plays[play])
	}
	return e.ops[play]
}

func (e *editEnv) drive(lim limits, rec *recorder) error {
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	reader := newRecorder(rec.workload, false)
	if lim.single {
		close(readerDone)
	} else {
		go func() {
			defer close(readerDone)
			e.read(stop, reader)
		}()
	}
	t0 := time.Now()
	before, err := e.db.Metrics()
	if err == nil {
		err = e.write(lim, rec)
	}
	close(stop)
	<-readerDone
	if err != nil {
		return err
	}
	after, err := e.db.Metrics()
	if err != nil {
		return err
	}
	rec.win.add(before, after, time.Since(t0))
	rec.merge(reader)
	rec.drain(e.db, true)
	e.verify(rec)
	return nil
}

// write builds plays until the limit, checking it between plays so that
// every document in the store is complete and can be compared with the
// model.
func (e *editEnv) write(lim limits, rec *recorder) error {
	start := time.Now()
	for k := 0; ; k++ {
		play := k % len(e.in.plays)
		name := fmt.Sprintf("edit%03d", k)
		ops := e.opsFor(play)
		rng := e.in.rng("reinsert", k)
		t0 := time.Now()
		root := "<" + e.in.plays[play].Name + "/>"
		if err := e.db.ImportXML(name, strings.NewReader(root)); err != nil {
			return fmt.Errorf("edit_incr: create %s: %w", name, err)
		}
		doc, err := e.db.Document(name)
		if err != nil {
			return fmt.Errorf("edit_incr: %w", err)
		}
		for _, op := range ops {
			e.insert(doc, op, rec)
			if rng.Float64() < reinsertShare {
				path := append(append([]int(nil), op.ParentPath...), op.Index)
				t := time.Now()
				err := doc.DeleteNode(path)
				e.observe(rec, name, t, err)
				e.insert(doc, op, rec)
			}
			rec.drain(e.db, false)
		}
		rec.units = append(rec.units, unit{Kind: "play", Bytes: int64(len(e.in.xml[play])), Dur: time.Since(t0)})
		rec.written += int64(len(e.in.xml[play]))
		rec.docs++
		e.built[name] = play
		if lim.done(start, k+1) {
			return nil
		}
	}
}

func (e *editEnv) insert(doc *natix.Document, op corpus.InsertOp, rec *recorder) {
	t := time.Now()
	var err error
	if op.IsText {
		err = doc.InsertText(op.ParentPath, op.Index, op.Text)
	} else {
		err = doc.InsertElement(op.ParentPath, op.Index, op.Name)
	}
	e.observe(rec, doc.Name(), t, err)
}

func (e *editEnv) observe(rec *recorder, doc string, start time.Time, err error) {
	rec.observe("edit", doc, start, time.Since(start))
	rec.attempted++
	rec.edits++
	if err != nil {
		rec.fail(1, "edit %s: %v", doc, err)
	}
}

// read runs the select classes over the reader documents in seeded
// order until stop closes.
func (e *editEnv) read(stop <-chan struct{}, rec *recorder) {
	k := len(selectClasses)
	for pass := 0; ; pass++ {
		for _, pair := range e.in.rng("reader", pass).Perm(e.c.scale.ReaderDocs * k) {
			select {
			case <-stop:
				return
			default:
			}
			runQuery(e.db, e.prep, e.in, pair/k, selectClasses[pair%k], "read_", rec)
		}
	}
}

// verify compares every document the writer built, and the reader's
// documents, with the model. It does not checkpoint: the traced run
// copies the files afterwards as a crash would leave them.
func (e *editEnv) verify(rec *recorder) {
	for name, play := range e.expectDocs() {
		if msg := checkDocument(e.db, name, e.in.xml[play]); msg != "" {
			rec.fail(1, "%s", msg)
		}
	}
}

// expectDocs maps every document the store must hold to its corpus play.
func (e *editEnv) expectDocs() map[string]int {
	docs := map[string]int{}
	for i := 0; i < e.c.scale.ReaderDocs; i++ {
		docs[e.in.names[i]] = i
	}
	for name, play := range e.built {
		docs[name] = play
	}
	return docs
}

func (e *editEnv) endToEnd(rec *recorder) map[string]float64 {
	l := summarize(rec.lat["edit"])
	rec.info["op_latency_us"] = l
	rec.info["edit_ops_per_s"] = ratio(float64(l.N), sumDur(rec.units, "play").Seconds())
	rec.info["reader_select"] = summarize(rec.pooled(selectNames("read_")))
	var user, space int64
	for _, play := range e.expectDocs() {
		user += int64(len(e.in.xml[play]))
	}
	if st, err := e.db.Stats(); err != nil {
		rec.fail(1, "Stats: %v", err)
	} else {
		space = st.SpaceBytes // allocated pages, whether or not written back yet
	}
	return map[string]float64{
		"op_p50_us":           l.P50,
		"op_p95_us":           l.P95,
		"mb_per_s":            median(rec.unitRates("play")),
		"space_per_user_byte": ratio(float64(space), float64(user)),
	}
}
