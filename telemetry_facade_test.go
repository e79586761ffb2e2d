package natix

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

const telPlay = `<PLAY><TITLE>T</TITLE><ACT><TITLE>A1</TITLE><SCENE><TITLE>S1</TITLE><SPEECH><SPEAKER>Ham</SPEAKER><LINE>a</LINE><LINE>b</LINE></SPEECH><SPEECH><SPEAKER>Oph</SPEAKER><LINE>c</LINE></SPEECH></SCENE></ACT></PLAY>`

func openTelemetryDB(t *testing.T, opts Options) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.ImportXML("p", strings.NewReader(telPlay)); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestMetricsSnapshot exercises the always-on metrics: importing and
// querying moves the counters a snapshot reports, deltas subtract, and
// the expvar export is valid JSON.
func TestMetricsSnapshot(t *testing.T) {
	db := openTelemetryDB(t, Options{PathIndex: true, WAL: true})
	before, err := db.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if before.Counters["docstore.imports"] != 1 {
		t.Errorf("imports = %d, want 1", before.Counters["docstore.imports"])
	}
	if before.Counters["buffer.logical_reads"] == 0 {
		t.Error("no logical reads counted after an import")
	}
	if before.Counters["wal.syncs"] == 0 {
		t.Error("no WAL syncs counted after a logged import")
	}
	if h := before.Histograms["wal.commit_batch_records"]; h.Count == 0 {
		t.Error("no commit batches observed")
	}

	if _, err := db.Query("p", "//LINE"); err != nil {
		t.Fatal(err)
	}
	after, err := db.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	delta, err := db.MetricsDelta(before)
	if err != nil {
		t.Fatal(err)
	}
	if delta["docstore.queries_indexed"] != 1 {
		t.Errorf("indexed-query delta = %d, want 1", delta["docstore.queries_indexed"])
	}
	if after.Histograms["docstore.query_ns_indexed"].Count != 1 {
		t.Errorf("query histogram count = %d, want 1", after.Histograms["docstore.query_ns_indexed"].Count)
	}

	v, err := db.MetricsVar()
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(v.String()), &decoded); err != nil {
		t.Fatalf("expvar export is not JSON: %v", err)
	}
}

// TestStatsSingleSnapshot checks the rebuilt DB.Stats reads everything
// through the registry: the legacy fields move with activity.
func TestStatsSingleSnapshot(t *testing.T) {
	db := openTelemetryDB(t, Options{PathIndex: true})
	if _, err := db.Query("p", "//SPEAKER"); err != nil {
		t.Fatal(err)
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.LogicalReads == 0 || st.RecordsCreated == 0 {
		t.Errorf("stats not populated from registry: %+v", st)
	}
	if st.PathIndexBuilds != 1 || st.IndexedQueries != 1 {
		t.Errorf("index stats: builds=%d indexed=%d, want 1/1", st.PathIndexBuilds, st.IndexedQueries)
	}
	if st.PageSize == 0 || st.SpaceBytes == 0 {
		t.Errorf("space stats missing: %+v", st)
	}
}

// TestTracingAndCursorLifecycle opens a traced store and checks that
// operations land in the ring with their phases, and that cursor
// lifecycle counters tell exhausted from abandoned.
func TestTracingAndCursorLifecycle(t *testing.T) {
	db := openTelemetryDB(t, Options{PathIndex: true, Tracing: true})

	// Exhaust one cursor, abandon another.
	cur, err := db.QueryIter(context.Background(), "p", "//LINE")
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for cur.Next() {
		rows++
	}
	if err := cur.Err(); err != nil || rows != 3 {
		t.Fatalf("cursor: rows=%d err=%v", rows, err)
	}
	ab, err := db.QueryIter(context.Background(), "p", "//LINE")
	if err != nil {
		t.Fatal(err)
	}
	ab.Next()
	ab.Close()

	m, err := db.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		"docstore.cursors_opened":    2,
		"docstore.cursors_exhausted": 1,
		"docstore.cursors_abandoned": 1,
		"docstore.cursor_rows":       4,
	} {
		if got := m.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	traces, err := db.RecentTraces()
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]bool{}
	var importTrace *Trace
	for i := range traces {
		ops[traces[i].Op] = true
		if traces[i].Op == "import" {
			importTrace = &traces[i]
		}
	}
	for _, want := range []string{"import", "cursor:indexed"} {
		if !ops[want] {
			t.Errorf("no %q trace in ring (have %v)", want, ops)
		}
	}
	if importTrace == nil {
		t.Fatal("import trace missing")
	}
	phases := map[string]bool{}
	for _, ph := range importTrace.Phases {
		phases[ph.Op] = true
	}
	for _, want := range []string{"stream", "finish", "index"} {
		if !phases[want] {
			t.Errorf("import trace missing phase %q (have %v)", want, phases)
		}
	}
	if importTrace.Doc != "p" || importTrace.Duration <= 0 {
		t.Errorf("import trace not annotated: %+v", importTrace)
	}
}

// TestSlowOpLogEndToEnd sets a one-nanosecond threshold so every op is
// slow. With a sink the records go to the sink (and the ring stays
// empty); without one they land in the internal ring.
func TestSlowOpLogEndToEnd(t *testing.T) {
	var sunk []SlowOp
	db := openTelemetryDB(t, Options{
		SlowOpThreshold: time.Nanosecond,
		SlowOpSink:      func(op SlowOp) { sunk = append(sunk, op) },
	})
	if _, err := db.Query("p", "//LINE"); err != nil {
		t.Fatal(err)
	}
	if len(sunk) < 2 {
		t.Fatalf("sink saw %d ops, want >= 2 (import + query)", len(sunk))
	}
	if sunk[0].Threshold != time.Nanosecond {
		t.Errorf("threshold not recorded: %+v", sunk[0])
	}
	ops, err := db.SlowOps()
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 0 {
		t.Errorf("ring has %d entries despite a sink owning the records", len(ops))
	}

	ringed := openTelemetryDB(t, Options{SlowOpThreshold: time.Nanosecond})
	if _, err := ringed.Query("p", "//LINE"); err != nil {
		t.Fatal(err)
	}
	ops, err = ringed.SlowOps()
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) < 2 {
		t.Fatalf("slow-op ring has %d entries, want >= 2", len(ops))
	}
	if ops[0].Op == "" || ops[0].Duration <= 0 {
		t.Errorf("slow op not annotated: %+v", ops[0])
	}
}

// TestExplainFacade checks Explain and ExplainRun through the public
// API on all three evaluator kinds.
func TestExplainFacade(t *testing.T) {
	db := openTelemetryDB(t, Options{PathIndex: true})
	if err := db.ImportXMLFlat("f", strings.NewReader(telPlay)); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		doc, query string
		eval       EvaluatorKind
		want       int64
	}{
		{"p", "//SPEECH/LINE", EvalIndexed, 3},
		{"p", "//SPEECH/*", EvalScan, 5},
		{"f", "//SPEECH/LINE", EvalFlat, 3},
	}
	for _, tc := range cases {
		ex, err := db.ExplainRun(context.Background(), tc.doc, tc.query)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Plan.Evaluator != tc.eval {
			t.Errorf("%s on %s: evaluator %s, want %s", tc.query, tc.doc, ex.Plan.Evaluator, tc.eval)
		}
		if !ex.Executed {
			t.Fatalf("%s: not executed", tc.query)
		}
		if ex.Plan.EstMatches >= 0 && ex.Plan.Exact && ex.Plan.EstMatches != ex.ActualMatches {
			t.Errorf("%s on %s: exact est %d != actual %d", tc.query, tc.doc, ex.Plan.EstMatches, ex.ActualMatches)
		}
		if ex.ActualMatches != tc.want {
			t.Errorf("%s on %s: actual %d, want %d", tc.query, tc.doc, ex.ActualMatches, tc.want)
		}
		if out := ex.String(); !strings.Contains(out, "actual:") {
			t.Errorf("rendering missing execution annotation:\n%s", out)
		}
	}

	// A navigating scan touches tree pages, so its run must report
	// logical reads. (An indexed count can be answered entirely from
	// cached posting lists, so no such guarantee there.)
	ex, err := db.ExplainRun(context.Background(), "p", "//SPEECH/*")
	if err != nil {
		t.Fatal(err)
	}
	if ex.LogicalReads <= 0 {
		t.Errorf("scan run reports %d logical reads", ex.LogicalReads)
	}
}
