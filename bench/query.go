package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"natix"
)

// query_resident and query_spill: the same store file and the same
// passes — every (document, query class) pair once, in seeded order —
// against a pool the file fits in (one client, warmed) and against the
// paper's 2 MB pool (data about 6.5 times the pool, min(2, nproc)
// clients, opened cold).

func residentOpts(sc scale) storeOpts { return storeOpts{PoolBytes: sc.ResidentBytes} }
func spillOpts(sc scale) storeOpts    { return storeOpts{PoolBytes: sc.SpillBytes} }

type queryEnv struct {
	c       *config
	in      *inputs
	opts    storeOpts
	clients int
	driven  int // clients of the last drive
	db      *natix.DB
	prep    prepared
}

func (e *queryEnv) storePath() string { return e.c.path("query.natix") }

func setupResident(c *config, in *inputs, tracing bool) (env, error) {
	e := &queryEnv{c: c, in: in, opts: residentOpts(c.scale), clients: 1}
	if err := e.open(tracing); err != nil {
		return nil, err
	}
	// One untimed pass fills the pool and the record cache.
	warm := newRecorder("warmup", false)
	e.pass(warm, e.in.rng("warmup", 0).Perm(len(in.names)*len(classes)), time.Time{}, limits{})
	if warm.failed > 0 {
		e.db.Close()
		return nil, fmt.Errorf("query_resident: warm-up: %s", warm.firstFailure)
	}
	return e, nil
}

func setupSpill(c *config, in *inputs, tracing bool) (env, error) {
	e := &queryEnv{c: c, in: in, opts: spillOpts(c.scale), clients: min(2, runtime.NumCPU())}
	if err := e.open(tracing); err != nil {
		return nil, err
	}
	return e, nil
}

// open builds the store of the whole corpus, closes it, and reopens it
// with the workload's pool.
func (e *queryEnv) open(tracing bool) error {
	path := e.storePath()
	removeStore(path)
	// NoSync while building: the build is set-up, not what is measured.
	db, err := storeOpts{PoolBytes: e.c.scale.SpillBytes, NoSync: true}.open(path, false)
	if err != nil {
		return err
	}
	if err := importDocs(db, e.in, len(e.in.names)); err != nil {
		db.Close()
		return err
	}
	if err := db.Close(); err != nil {
		return err
	}
	if e.db, err = e.opts.open(path, tracing); err != nil {
		return err
	}
	if e.prep, err = prepare(e.db); err != nil {
		e.db.Close()
	}
	return err
}

func (e *queryEnv) close() error { return e.db.Close() }

func (e *queryEnv) expectDocs() map[string]int { return allDocs(e.in) }

func (e *queryEnv) drive(lim limits, rec *recorder) error {
	clients := e.clients
	if lim.single {
		clients = 1
	}
	e.driven = clients
	rec.info["clients"] = clients
	before, err := e.db.Metrics()
	if err != nil {
		return err
	}
	start := time.Now()
	recs := make([]*recorder, clients)
	var wg sync.WaitGroup
	for c := range recs {
		recs[c] = rec
		if c > 0 {
			recs[c] = newRecorder(rec.workload, false)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.client(c, lim, start, recs[c])
		}()
	}
	wg.Wait()
	after, err := e.db.Metrics()
	if err != nil {
		return err
	}
	rec.win.add(before, after, time.Since(start))
	for _, r := range recs[1:] {
		rec.merge(r)
	}
	rec.drain(e.db, true)
	return nil
}

// client runs passes, each in its own seeded order, until the limit.
func (e *queryEnv) client(id int, lim limits, start time.Time, rec *recorder) {
	n := len(e.in.names) * len(classes)
	for pass := 0; !lim.done(start, pass); pass++ {
		order := e.in.rng("pass", id*1_000_003+pass).Perm(n)
		if !e.pass(rec, order, start, lim) {
			return
		}
	}
}

// pass runs the given (document, class) pairs. It stops early, and
// returns false, once lim's deadline has passed; only a completed pass
// counts as a unit.
func (e *queryEnv) pass(rec *recorder, order []int, start time.Time, lim limits) bool {
	var bulkBytes int64
	var bulkDur time.Duration
	for _, pair := range order {
		if lim.expired(start) {
			return false
		}
		doc, c := pair/len(classes), pair%len(classes)
		a, d := runQuery(e.db, e.prep, e.in, doc, c, "", rec)
		if classes[c].Bulk {
			bulkBytes += a.Bytes
			bulkDur += d
		}
		rec.drain(e.db, false)
	}
	rec.units = append(rec.units, unit{Kind: "pass", Bytes: bulkBytes, Dur: bulkDur})
	return true
}

// runQuery evaluates one (document, class) pair through the public API,
// checks the answer against the oracle and records the call under
// prefix + class name.
func runQuery(db *natix.DB, prep prepared, in *inputs, doc, c int, prefix string, rec *recorder) (answer, time.Duration) {
	name := in.names[doc]
	t := time.Now()
	a, err := prep.exec(db, c, name)
	d := time.Since(t)
	rec.observe(prefix+classes[c].Name, name, t, d)
	rec.attempted++
	rec.queries++
	rec.matches += int64(a.Matches)
	switch want := in.expect[doc][c]; {
	case err != nil:
		rec.fail(1, "%s on %s: %v", classes[c].Name, name, err)
	case a != want:
		rec.fail(1, "%s on %s: got %+v, want %+v", classes[c].Name, name, a, want)
	}
	return a, d
}

// selectNames returns the op-class names of the select classes.
func selectNames(prefix string) []string {
	var out []string
	for _, c := range selectClasses {
		out = append(out, prefix+classes[c].Name)
	}
	return out
}

func (e *queryEnv) endToEnd(rec *recorder) map[string]float64 {
	l := summarize(rec.pooled(selectNames("")))
	rec.info["op_latency_us"] = l
	return map[string]float64{
		"op_p50_us":           l.P50,
		"op_p95_us":           l.P95,
		"mb_per_s":            median(rec.unitRates("pass")) * float64(e.driven),
		"space_per_user_byte": ratio(float64(fileSize(e.storePath())), float64(e.in.xmlBytes)),
	}
}
