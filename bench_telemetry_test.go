// Telemetry overhead: the same indexed query and bulk import measured
// with instrumentation off and fully on (tracing + slow-op log). The
// benchmarks expose the comparison; TestTelemetryOverheadGuard enforces
// it — metrics are always-on by design, so the only acceptable cost of
// the opt-in layers is noise.
package natix

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"natix/internal/corpus"
	"natix/internal/xmlkit"
)

// telemetryVariants are the two ends of the instrumentation spectrum:
// metrics only (always on) vs every opt-in layer live. The slow-op
// threshold is set high so the comparison prices the bookkeeping, not
// ring traffic.
func telemetryVariants() []struct {
	name string
	opts Options
} {
	return []struct {
		name string
		opts Options
	}{
		{"off", Options{PathIndex: true}},
		{"tracing", Options{PathIndex: true, Tracing: true, SlowOpThreshold: time.Minute}},
	}
}

// benchPlayXML returns one generated play (~0.2 MB), the benchmark
// document unit.
func benchPlayXML() string {
	return xmlkit.SerializeString(corpus.GeneratePlay(corpus.DefaultSpec(), 0))
}

// BenchmarkQueryIndexed measures an indexed path query with telemetry
// off vs fully on.
func BenchmarkQueryIndexed(b *testing.B) {
	xml := benchPlayXML()
	for _, v := range telemetryVariants() {
		b.Run(v.name, func(b *testing.B) {
			db, err := Open(v.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			if err := db.ImportXML("play", strings.NewReader(xml)); err != nil {
				b.Fatal(err)
			}
			q, err := db.Prepare("//SPEECH/LINE")
			if err != nil {
				b.Fatal(err)
			}
			ctx := b.Context()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.Count(ctx, "play"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkImportTelemetry measures bulk import with telemetry off vs
// fully on (BenchmarkImport covers the bulk-vs-incremental axis; this
// one isolates the instrumentation axis).
func BenchmarkImportTelemetry(b *testing.B) {
	xml := benchPlayXML()
	for _, v := range telemetryVariants() {
		b.Run(v.name, func(b *testing.B) {
			db, err := Open(v.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			b.SetBytes(int64(len(xml)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				name := fmt.Sprintf("doc-%d", i)
				if err := db.ImportXML(name, strings.NewReader(xml)); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := db.Delete(name); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// timeBatch runs fn iters times and returns the elapsed time.
func timeBatch(iters int, fn func() error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// BenchmarkTelemetryOverhead reports how much slower the fully
// instrumented query and import paths are than the uninstrumented ones,
// in percent. Off and on batches interleave round by round (one round
// per iteration, after a warm-up round), so machine-load drift hits both
// sides, and each side keeps its fastest batch. A regression in kind (an
// allocation or a lock on the hot path) shows as tens of percent;
// single-digit readings are timer and scheduler noise at this batch size.
func BenchmarkTelemetryOverhead(b *testing.B) {
	xml := benchPlayXML()
	const (
		queryIters = 300
		imports    = 6
	)
	type side struct {
		query func() error
		imp   func() error
		best  [2]time.Duration // query, import
	}
	variants := telemetryVariants()
	sides := make([]*side, len(variants))
	for i, v := range variants {
		db, err := Open(v.opts)
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		if err := db.ImportXML("play", strings.NewReader(xml)); err != nil {
			b.Fatal(err)
		}
		q, err := db.Prepare("//SPEECH/LINE")
		if err != nil {
			b.Fatal(err)
		}
		ctx := b.Context()
		seq := 0
		sides[i] = &side{
			query: func() error {
				_, err := q.Count(ctx, "play")
				return err
			},
			imp: func() error {
				seq++
				name := fmt.Sprintf("doc-%d", seq)
				if err := db.ImportXML(name, strings.NewReader(xml)); err != nil {
					return err
				}
				return db.Delete(name)
			},
			best: [2]time.Duration{1<<63 - 1, 1<<63 - 1},
		}
	}
	// Round -1 is the warm-up (caches, allocator); its times are dropped.
	for r := -1; r < b.N; r++ {
		if r == 0 {
			b.ResetTimer()
		}
		for _, s := range sides {
			qd, err := timeBatch(queryIters, s.query)
			if err != nil {
				b.Fatal(err)
			}
			id, err := timeBatch(imports, s.imp)
			if err != nil {
				b.Fatal(err)
			}
			if r < 0 {
				continue
			}
			s.best[0] = min(s.best[0], qd)
			s.best[1] = min(s.best[1], id)
		}
	}
	off, on := sides[0].best, sides[1].best
	for i, op := range []string{"query", "import"} {
		b.ReportMetric(100*(float64(on[i])/float64(off[i])-1), op+"_overhead_%")
	}
}
