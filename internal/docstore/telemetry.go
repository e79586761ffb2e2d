package docstore

// Telemetry integration: the document manager owns the operation-level
// metrics (imports, mutations, queries by evaluator kind, cursor
// lifecycle, checkpoint durations) and the operation spans. Handles are
// nil until AttachTelemetry and every telemetry call is nil-safe, so an
// unattached store pays one nil check per site.

import "natix/internal/telemetry"

// EvaluatorKind names a query evaluation route.
type EvaluatorKind string

// The three routes: one evaluator (machine.go), three sources of
// candidates.
const (
	EvalIndexed EvaluatorKind = "indexed" // posting-list index probe
	EvalScan    EvaluatorKind = "scan"    // navigating tree scan
	EvalFlat    EvaluatorKind = "flat"    // flat-mode parse
)

// AttachTelemetry connects the store to a metrics registry and an
// operation tracer (either may be nil). Call before traffic starts; the
// registered views read the store's own atomics, and the registry-owned
// counters and histograms it creates here are updated by the operation
// paths.
func (s *Store) AttachTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) {
	s.tracer = tracer
	if reg == nil {
		return
	}
	reg.Func("docstore.index_builds", s.builds.Load)
	reg.Func("docstore.queries_indexed", s.indexedQueries.Load)
	reg.Func("docstore.queries_summary", s.summaryQueries.Load)
	reg.Func("docstore.queries_scan", s.scanQueries.Load)
	reg.Func("docstore.queries_flat", s.flatQueries.Load)
	reg.Func("docstore.index_unreadable", s.indexUnreadable.Load)
	s.mImports = reg.Counter("docstore.imports")
	s.mMutations = reg.Counter("docstore.mutations")
	s.mCursorsOpened = reg.Counter("docstore.cursors_opened")
	s.mCursorsExhausted = reg.Counter("docstore.cursors_exhausted")
	s.mCursorsAbandoned = reg.Counter("docstore.cursors_abandoned")
	s.mCursorRows = reg.Counter("docstore.cursor_rows")
	// Import pipeline stage times: CPU spent tokenizing (producer
	// goroutine), packing records (loader goroutine) and flushing pages
	// (batch-writer goroutine), summed across concurrent shards.
	s.mImportParseNS = reg.Counter("docstore.import_parse_ns")
	s.mImportPackNS = reg.Counter("docstore.import_pack_ns")
	s.mImportWriteNS = reg.Counter("docstore.import_write_ns")
	s.mQueryIndexedNS = reg.Histogram("docstore.query_ns_indexed")
	s.mQueryScanNS = reg.Histogram("docstore.query_ns_scan")
	s.mQueryFlatNS = reg.Histogram("docstore.query_ns_flat")
	s.mCheckpointNS = reg.Histogram("docstore.checkpoint_ns")
}

// queryHist returns the query-duration histogram for an evaluator.
func (s *Store) queryHist(kind EvaluatorKind) *telemetry.Histogram {
	switch kind {
	case EvalIndexed:
		return s.mQueryIndexedNS
	case EvalFlat:
		return s.mQueryFlatNS
	default:
		return s.mQueryScanNS
	}
}

// startOp opens a root span for one document operation. The returned
// span is nil (and free) when tracing and the slow-op log are both off.
func (s *Store) startOp(op, doc string) *telemetry.Span {
	sp := s.tracer.Start(op)
	sp.SetDoc(doc)
	return sp
}

// startQueryOp opens the root span of a query operation: "query",
// "count" or "cursor", suffixed with the route it runs on.
func (s *Store) startQueryOp(op string, kind EvaluatorKind, doc string) *telemetry.Span {
	if !s.tracer.Enabled() {
		return nil
	}
	return s.startOp(op+":"+string(kind), doc)
}
