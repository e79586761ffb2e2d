package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"natix"
)

// load_bulk: the streaming write path. Each round opens a fresh store,
// imports the whole corpus, checkpoints and closes; even rounds call
// ImportXML once per document, odd rounds make one ImportXMLBatch call.
// Commits fsync (the durable default).

func loadOpts(sc scale) storeOpts { return storeOpts{PoolBytes: sc.SpillBytes} }

type loadEnv struct {
	c         *config
	in        *inputs
	fileBytes int64 // store file after the last ImportXML round's checkpoint
}

func setupLoad(c *config, in *inputs, tracing bool) (env, error) {
	return &loadEnv{c: c, in: in}, nil
}

func (e *loadEnv) close() error { return nil }

func (e *loadEnv) expectDocs() map[string]int { return allDocs(e.in) }

// allDocs maps every corpus document to its own play.
func allDocs(in *inputs) map[string]int {
	docs := make(map[string]int, len(in.names))
	for i, name := range in.names {
		docs[name] = i
	}
	return docs
}

// storePath is the file the last round of the given kind left behind;
// the probes read the ImportXML one.
func (e *loadEnv) storePath() string { return e.c.path("load-single.natix") }

func (e *loadEnv) drive(lim limits, rec *recorder) error {
	start := time.Now()
	for round := 0; round == 0 || !lim.done(start, round); round++ {
		if err := e.round(round%2 == 1, rec); err != nil {
			return err
		}
	}
	return nil
}

// round runs one timed load and then verifies what it stored.
func (e *loadEnv) round(batch bool, rec *recorder) error {
	kind, path := "single", e.storePath()
	if batch {
		kind, path = "batch", e.c.path("load-batch.natix")
	}
	removeStore(path)
	in := e.in
	t0 := time.Now()
	db, err := loadOpts(e.c.scale).open(path, rec.tracing)
	if err != nil {
		return err
	}
	rec.attempted += int64(len(in.names))
	if batch {
		docs := make([]natix.ImportDoc, len(in.names))
		for i, name := range in.names {
			docs[i] = natix.ImportDoc{Name: name, R: strings.NewReader(in.xml[i])}
		}
		t := time.Now()
		err := db.ImportXMLBatch(context.Background(), docs)
		rec.observe("import_batch", "", t, time.Since(t))
		if err != nil {
			rec.fail(int64(len(docs)), "ImportXMLBatch: %v", err)
		}
	} else {
		for i, name := range in.names {
			t := time.Now()
			err := db.ImportXML(name, strings.NewReader(in.xml[i]))
			rec.observe("import_doc", name, t, time.Since(t))
			if err != nil {
				rec.fail(1, "ImportXML %s: %v", name, err)
			}
		}
	}
	t := time.Now()
	err = db.Flush()
	rec.observe("checkpoint", "", t, time.Since(t))
	if err != nil {
		db.Close()
		return fmt.Errorf("load_bulk: Flush: %w", err)
	}
	rec.drain(db, true)
	after, err := db.Metrics()
	if err != nil {
		db.Close()
		return err
	}
	t = time.Now()
	err = db.Close()
	rec.observe("close", "", t, time.Since(t))
	if err != nil {
		return fmt.Errorf("load_bulk: Close: %w", err)
	}
	dur := time.Since(t0)
	rec.units = append(rec.units, unit{Kind: kind, Bytes: in.xmlBytes, Dur: dur})
	if !batch {
		// The R window covers the ImportXML rounds only: the batch
		// rounds' page counts vary with worker timing.
		rec.win.add(natix.Metrics{}, after, dur)
		rec.docs += int64(len(in.names))
		rec.written += in.xmlBytes
		e.fileBytes = fileSize(path)
	}
	return e.verify(path, rec)
}

// verify reopens the store a round left behind (the way a later session
// would find it) and checks every document against the corpus.
func (e *loadEnv) verify(path string, rec *recorder) error {
	db, err := loadOpts(e.c.scale).open(path, false)
	if err != nil {
		return fmt.Errorf("load_bulk: reopen: %w", err)
	}
	defer db.Close()
	for i, name := range e.in.names {
		if msg := checkDocument(db, name, e.in.xml[i]); msg != "" {
			rec.fail(1, "%s", msg)
		}
	}
	return nil
}

// checkDocument compares a stored document with the model: it must
// export byte-identically and pass the structural invariants. It
// returns "" when both hold.
func checkDocument(db *natix.DB, name, want string) string {
	same, err := exportEquals(db, name, want)
	if err != nil {
		return fmt.Sprintf("export %s: %v", name, err)
	}
	if !same {
		return fmt.Sprintf("export %s differs from the model", name)
	}
	doc, err := db.Document(name)
	if err != nil {
		return fmt.Sprintf("document %s: %v", name, err)
	}
	if err := doc.Check(); err != nil {
		return fmt.Sprintf("check %s: %v", name, err)
	}
	return ""
}

func (e *loadEnv) endToEnd(rec *recorder) map[string]float64 {
	l := summarize(rec.lat["import_doc"])
	rec.info["op_latency_us"] = l
	rec.info["batch_mb_per_s"] = median(rec.unitRates("batch"))
	return map[string]float64{
		"op_p50_us":           l.P50,
		"op_p95_us":           l.P95,
		"mb_per_s":            median(rec.unitRates("single")),
		"space_per_user_byte": ratio(float64(e.fileBytes), float64(e.in.xmlBytes)),
	}
}
