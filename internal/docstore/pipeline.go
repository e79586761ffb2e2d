package docstore

// The pipelined import path. A bulk import has three stages with very
// different cost profiles: tokenizing the input (pure CPU over the read
// window), packing events into records (pure CPU over the builder
// frames), and flushing full pages (buffer-pool and log traffic, done
// by records.BatchWriter's flusher goroutine). The parser runs as a
// producer goroutine handing event batches across a bounded channel to
// the packing loop, so parse and pack overlap — and, through the
// BatchWriter, page flushing overlaps with both. It is the one loop
// every bulk tree import runs: ImportXML, each shard of ImportXMLBatch,
// and Convert to tree mode.
//
// ImportXMLBatch extends the same idea across documents: a multi-
// document corpus is sharded one-document-per-worker over N concurrent
// import pipelines inside a single logged operation. Each shard owns a
// full loader (builder, batch writer, index stream builder), so shards
// share only the allocator (serialized by segment.allocMu), the buffer
// pool and the log (both internally synchronized), and one dictionary
// batch behind a mutex. Every record is still written exactly once;
// the result is byte-identical to importing the documents serially.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"natix/internal/dict"
	"natix/internal/pathindex"
	"natix/internal/records"
	"natix/internal/telemetry"
	"natix/internal/xmlkit"
)

const (
	// eventBatchLen is how many parse events travel together across the
	// stage boundary; batching amortizes the channel handoff and the
	// goroutine switches it implies (a batch is ~100KB of document).
	eventBatchLen = 1024
	// eventQueueLen bounds the batches in flight between parser and
	// packer: enough to ride out stage jitter, small enough that a slow
	// packer backpressures the parser instead of buffering the document.
	eventQueueLen = 4
)

// eventBatch is one producer→packer handoff: n valid events, or a
// terminal parser error.
type eventBatch struct {
	evs []xmlkit.Event
	n   int
	err error
}

// runImportPipeline drives one document through the two-goroutine
// parse/pack pipeline, feeding l with every event p produces. The
// context is checked per batch. On error the loader is left unaborted
// (callers own rollback).
func (s *Store) runImportPipeline(cx context.Context, l *bulkLoader, p *xmlkit.StreamParser, sp *telemetry.Span) error {
	ch := sp.Child("stream")
	defer ch.End()

	// Event batches circulate: the producer fills one from free (making
	// a new one only when none is idle), the packer sends it back once
	// applied. At most maxEventBatches exist at a time — the queue, one
	// being filled, one being applied — so a send to free never blocks.
	// They come from the loader's scratch and return to it at the end.
	out := make(chan eventBatch, eventQueueLen)
	free := make(chan []xmlkit.Event, maxEventBatches)
	for len(l.sc.events) > 0 && len(free) < cap(free) {
		free <- l.sc.eventBatch()
	}
	quit := make(chan struct{})
	var parseNS atomic.Int64

	go func() {
		defer close(out)
		for {
			var buf []xmlkit.Event
			select {
			case buf = <-free:
			default:
				buf = make([]xmlkit.Event, eventBatchLen)
			}
			t0 := telemetry.Now()
			n, err := p.ReadBatch(buf)
			parseNS.Add(int64(telemetry.Since(t0)))
			if n > 0 {
				select {
				case out <- eventBatch{evs: buf, n: n}:
					continue
				case <-quit:
					free <- buf
					return
				}
			}
			free <- buf
			if err != nil && err != io.EOF {
				select {
				case out <- eventBatch{err: err}:
				case <-quit:
				}
			}
			return
		}
	}()

	var err error
	var packNS int64
	for b := range out {
		if b.err != nil {
			err = b.err
			break
		}
		t0 := telemetry.Now()
		for i := 0; i < b.n; i++ {
			if err = l.apply(&b.evs[i]); err != nil {
				break
			}
		}
		packNS += int64(telemetry.Since(t0))
		free <- b.evs
		if err == nil {
			err = ctxErr(cx)
		}
		if err != nil {
			break
		}
	}
	close(quit)
	for b := range out { // unblock and drain the producer
		if b.evs != nil {
			free <- b.evs
		}
	}
	// The producer has exited (it closes out last): every batch is in
	// free. Cleared, so a parked batch pins none of the document's
	// strings.
	for len(free) > 0 {
		buf := <-free
		clear(buf)
		l.sc.events = append(l.sc.events, buf)
	}
	s.mImportParseNS.Add(parseNS.Load())
	s.mImportPackNS.Add(packNS)
	ch.Add("nodes", l.nodes)
	return err
}

// lockedBatch shares one dictionary batch between concurrent import
// shards. The underlying dict.Batch requires external serialization;
// the shards' only other shared mutable state is already synchronized
// below this layer.
type lockedBatch struct {
	mu sync.Mutex
	b  *dict.Batch
}

func (lb *lockedBatch) Intern(name string) (dict.LabelID, error) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.b.Intern(name)
}

func (lb *lockedBatch) Commit() error {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.b.Commit()
}

// ImportDoc names one input of a multi-document import.
type ImportDoc struct {
	Name string
	R    io.Reader
}

// ImportXMLBatch imports several documents in one logged operation,
// sharded one-document-per-worker over up to workers concurrent import
// pipelines (workers <= 0 means GOMAXPROCS). The whole batch commits or
// rolls back atomically: any failure — parse error, cancellation,
// duplicate name — leaves the store exactly as it was. The stored bytes
// are identical to importing the documents one by one in input order.
func (s *Store) ImportXMLBatch(cx context.Context, docs []ImportDoc, workers int) ([]DocInfo, error) {
	if len(docs) == 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(docs) {
		workers = len(docs)
	}
	names := make([]string, len(docs))
	for i, d := range docs {
		names[i] = d.Name
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("%w: %q appears twice in batch", ErrDuplicate, sorted[i])
		}
	}

	sp := s.startOp("import_batch", fmt.Sprintf("%d documents", len(docs)))
	defer sp.End()
	sp.Add("docs", int64(len(docs)))
	sp.Add("workers", int64(workers))
	s.mImports.Add(int64(len(docs)))
	s.mMutations.Inc()

	// Same lock order as Mutate — document locks (in sorted order, so
	// two concurrent batches cannot deadlock against each other), then
	// the writer mutex.
	for _, name := range sorted {
		s.lockFor(name).Lock()
	}
	defer func() {
		for i := len(sorted) - 1; i >= 0; i-- {
			s.lockFor(sorted[i]).Unlock()
		}
	}()
	s.wmu.Lock()
	defer s.wmu.Unlock()

	var infos []DocInfo
	err := s.runOp("import_batch", "", func() error {
		var err error
		infos, err = s.importBatchLocked(cx, docs, workers, sp)
		return err
	})
	if err != nil {
		return nil, err
	}
	return infos, nil
}

// importBatchLocked runs the sharded import. Mutator context, inside
// the batch's logged operation.
func (s *Store) importBatchLocked(cx context.Context, docs []ImportDoc, workers int, sp *telemetry.Span) ([]DocInfo, error) {
	for _, d := range docs {
		if _, ok := s.lookup(d.Name); ok {
			return nil, fmt.Errorf("%w: %q", ErrDuplicate, d.Name)
		}
	}
	cctx, cancel := context.WithCancelCause(orBackground(cx))
	defer cancel(nil)

	shared := &lockedBatch{b: s.dict.NewBatch()}
	loaders := make([]*bulkLoader, len(docs))
	roots := make([]records.RID, len(docs))
	idxs := make([]*pathindex.Index, len(docs))
	writeNS := make([]int64, len(docs))
	errs := make([]error, len(docs))

	// One shard per document, at most workers in flight. Each worker
	// runs the full per-document pipeline and seals its own builder
	// (bb.Finish flushes the shard's last page; sb.Finish deals the
	// shard's postings out to their lists) so only catalog-order work
	// remains serialized.
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range docs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if cctx.Err() != nil {
				errs[i] = cctx.Err()
				return
			}
			l := s.newBulkLoaderWith(shared)
			loaders[i] = l
			p := xmlkit.NewStreamParser(docs[i].R, xmlkit.ParseOptions{})
			// Spans are single-goroutine (a child End appends to its
			// parent); concurrent shards report through the stage-time
			// counters instead.
			err := s.runImportPipeline(cctx, l, p, nil)
			if err == nil {
				roots[i], err = l.bb.Finish()
			}
			if err == nil && l.sb != nil {
				idxs[i], err = l.sb.Finish()
			}
			if err != nil {
				errs[i] = err
				cancel(err) // fail fast: unblock sibling shards
				return
			}
			writeNS[i] = l.bb.BatchStats().WriteNS
			l.releaseScratch()
		}(i)
	}
	wg.Wait()

	fail := func(err error) ([]DocInfo, error) {
		for _, l := range loaders {
			if l != nil {
				s.abortBulk(l)
			}
		}
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			// The first failure cancelled the other shards: report it,
			// not a sibling's cancellation.
			return fail(context.Cause(cctx))
		}
	}

	// Serialized epilogue, in input order: one dictionary save for the
	// whole batch, then each document's index and catalog entry.
	if err := shared.Commit(); err != nil {
		return fail(err)
	}
	infos := make([]DocInfo, 0, len(docs))
	var indexed, registered []string
	var enc []byte // one encode buffer for the whole batch's index blobs
	undo := func(err error) ([]DocInfo, error) {
		if s.walW != nil {
			return fail(err) // log-driven rollback undoes pages and catalog
		}
		for _, name := range indexed { // best-effort, like abortBulk
			_ = s.pindex.Drop(name)
		}
		if len(registered) > 0 {
			s.cmu.Lock()
			for _, name := range registered {
				delete(s.catalog, name)
			}
			s.cmu.Unlock()
			_ = s.saveCatalog()
		}
		return fail(err)
	}
	for i := range loaders {
		s.mImportWriteNS.Add(writeNS[i])
		info := &DocInfo{Name: docs[i].Name, Mode: ModeTree, Root: roots[i]}
		if idxs[i] != nil {
			if err := s.pindex.Put(info.Name, idxs[i], &enc); err != nil {
				return undo(err)
			}
			indexed = append(indexed, info.Name)
			s.builds.Add(1)
		}
		if err := s.register(info); err != nil {
			return undo(err)
		}
		registered = append(registered, info.Name)
		infos = append(infos, *info)
	}
	return infos, nil
}

// orBackground lets nil contexts (the non-Context entry points) flow
// through context.WithCancel.
func orBackground(cx context.Context) context.Context {
	if cx == nil {
		return context.Background()
	}
	return cx
}
