// Benchmarks regenerating the paper's evaluation (one per figure), at
// reduced corpus scale so `go test -bench=.` completes quickly. The
// full-scale experiment runner is cmd/natix-bench; EXPERIMENTS.md holds
// its output against the paper's figures.
//
// Each benchmark reports simulated disk milliseconds per operation
// (sim-ms/op) — the paper-comparable metric — alongside Go ns/op.
package natix

import (
	"fmt"
	"testing"

	"natix/internal/benchkit"
	"natix/internal/corpus"
)

// benchSpec is the reduced corpus used by testing.B runs: 2 plays with
// the full DTD shape (≈33k nodes, ≈0.85 MB XML).
func benchSpec() corpus.Spec {
	spec := corpus.DefaultSpec()
	spec.Plays = 2
	return spec
}

// benchBuffer keeps the paper's 1:4 buffer-to-data ratio at bench scale.
const benchBuffer = 224 << 10

// paperSeries are the four measured series of Figures 9-13.
var paperSeries = []benchkit.Config{
	{Mode: benchkit.ModeOneToOne, Order: benchkit.OrderIncremental},
	{Mode: benchkit.ModeNative, Order: benchkit.OrderIncremental},
	{Mode: benchkit.ModeOneToOne, Order: benchkit.OrderAppend},
	{Mode: benchkit.ModeNative, Order: benchkit.OrderAppend},
}

func seriesName(cfg benchkit.Config) string {
	if cfg.Mode == benchkit.ModeOneToOne {
		return "1to1_" + cfg.Order.String()
	}
	return "1toN_" + cfg.Order.String()
}

// buildEnv builds one configured store outside the timed region.
func buildEnv(b *testing.B, cfg benchkit.Config) *benchkit.Env {
	b.Helper()
	cfg.BufferBytes = benchBuffer
	env, err := benchkit.BuildEnv(benchSpec(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// BenchmarkFig9Insertion measures loading the corpus: pre-order append
// vs. scattered (binary-BFS) incremental inserts, 1:1 vs. native.
func BenchmarkFig9Insertion(b *testing.B) {
	for _, base := range paperSeries {
		cfg := base
		cfg.PageSize = 8192
		cfg.BufferBytes = benchBuffer
		b.Run(seriesName(cfg), func(b *testing.B) {
			var simMS float64
			for i := 0; i < b.N; i++ {
				env, err := benchkit.BuildEnv(benchSpec(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				simMS += env.Insertion().SimMS
			}
			b.ReportMetric(simMS/float64(b.N), "sim-ms/op")
		})
	}
}

// BenchmarkFig10Traversal measures a full pre-order traversal of every
// document.
func BenchmarkFig10Traversal(b *testing.B) {
	for _, base := range paperSeries {
		cfg := base
		cfg.PageSize = 8192
		b.Run(seriesName(cfg), func(b *testing.B) {
			env := buildEnv(b, cfg)
			b.ResetTimer()
			var simMS float64
			for i := 0; i < b.N; i++ {
				m, err := env.Traverse()
				if err != nil {
					b.Fatal(err)
				}
				simMS += m.SimMS
			}
			b.ReportMetric(simMS/float64(b.N), "sim-ms/op")
		})
	}
}

// benchQuery runs one of the paper's queries as a benchmark.
func benchQuery(b *testing.B, op, query string, markup bool) {
	for _, base := range paperSeries {
		cfg := base
		cfg.PageSize = 8192
		b.Run(seriesName(cfg), func(b *testing.B) {
			env := buildEnv(b, cfg)
			b.ResetTimer()
			var simMS float64
			for i := 0; i < b.N; i++ {
				m, err := env.RunQuery(op, query, markup)
				if err != nil {
					b.Fatal(err)
				}
				if m.Work == 0 {
					b.Fatal("query matched nothing")
				}
				simMS += m.SimMS
			}
			b.ReportMetric(simMS/float64(b.N), "sim-ms/op")
		})
	}
}

// BenchmarkFig11Query1: all speakers of act 3, scene 2 of every play.
func BenchmarkFig11Query1(b *testing.B) {
	benchQuery(b, "fig11", benchkit.Query1, false)
}

// BenchmarkFig12Query2: the first speech of every scene, re-serialized.
func BenchmarkFig12Query2(b *testing.B) {
	benchQuery(b, "fig12", benchkit.Query2, true)
}

// BenchmarkFig13Query3: the opening speech of every play.
func BenchmarkFig13Query3(b *testing.B) {
	benchQuery(b, "fig13", benchkit.Query3, true)
}

// BenchmarkFig14Space reports bytes on disk after loading, per series
// (space is a property of the build, so the loop only guards noise).
func BenchmarkFig14Space(b *testing.B) {
	for _, base := range paperSeries {
		cfg := base
		cfg.PageSize = 8192
		b.Run(seriesName(cfg), func(b *testing.B) {
			env := buildEnv(b, cfg)
			var space int64
			for i := 0; i < b.N; i++ {
				space = env.Space().SpaceBytes
			}
			b.ReportMetric(float64(space), "bytes")
		})
	}
}

// BenchmarkPathIndexQueries runs the paper's three queries with and
// without the path index on the native append configuration. Following
// the paper's methodology every measured operation starts cold (buffer
// and decoded caches cleared), so the indexed runs pay the summary and
// posting-list reads each time. That shows exactly where the index
// wins: query 2's leading descendant step turns a whole-document walk
// into a few posting probes (~2×+ in simulated disk time); queries 1
// and 3 were already selective via their rooted prefixes, so the
// cold-start index reads cost slightly more than the pruned scan. In
// steady state (index resident, as a serving workload would run) the
// indexed path reads only the matching records for all three — the
// logical-read assertions in TestPathIndexSelectiveIO pin that.
func BenchmarkPathIndexQueries(b *testing.B) {
	queries := []struct{ name, q string }{
		{"query1", benchkit.Query1},
		{"query2", benchkit.Query2},
		{"query3", benchkit.Query3},
	}
	for _, mode := range []struct {
		name    string
		indexed bool
	}{{"scan", false}, {"indexed", true}} {
		cfg := benchkit.Config{
			PageSize: 8192, Mode: benchkit.ModeNative,
			Order: benchkit.OrderAppend, BufferBytes: benchBuffer,
			PathIndex: mode.indexed,
		}
		env := buildEnv(b, cfg)
		for _, q := range queries {
			b.Run(q.name+"_"+mode.name, func(b *testing.B) {
				var simMS float64
				for i := 0; i < b.N; i++ {
					m, err := env.RunQuery(q.name, q.q, false)
					if err != nil {
						b.Fatal(err)
					}
					if m.Work == 0 {
						b.Fatal("query matched nothing")
					}
					simMS += m.SimMS
				}
				b.ReportMetric(simMS/float64(b.N), "sim-ms/op")
			})
		}
	}
}

// BenchmarkAblationSplitTarget sweeps the split target on append loads
// (DESIGN.md ablation index).
func BenchmarkAblationSplitTarget(b *testing.B) {
	for _, target := range []float64{0.25, 0.5, 0.75} {
		cfg := benchkit.Config{
			PageSize: 8192, Mode: benchkit.ModeNative,
			Order: benchkit.OrderAppend, SplitTarget: target,
			BufferBytes: benchBuffer,
		}
		b.Run(fmt.Sprintf("target_%0.2f", target), func(b *testing.B) {
			var simMS float64
			for i := 0; i < b.N; i++ {
				env, err := benchkit.BuildEnv(benchSpec(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				simMS += env.Insertion().SimMS
			}
			b.ReportMetric(simMS/float64(b.N), "sim-ms/op")
		})
	}
}

// BenchmarkAblationRecordCache compares wall time with the record
// cache on and off (simulated time is unaffected by design).
func BenchmarkAblationRecordCache(b *testing.B) {
	for _, cache := range []int{-1, 4096} {
		name := "on"
		if cache < 0 {
			name = "off"
		}
		cfg := benchkit.Config{
			PageSize: 8192, Mode: benchkit.ModeNative,
			Order: benchkit.OrderAppend, CacheRecords: cache,
			BufferBytes: benchBuffer,
		}
		b.Run(name, func(b *testing.B) {
			var simMS float64
			for i := 0; i < b.N; i++ {
				env, err := benchkit.BuildEnv(benchSpec(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				simMS += env.Insertion().SimMS
			}
			b.ReportMetric(simMS/float64(b.N), "sim-ms/op")
		})
	}
}

// BenchmarkFlatBaseline measures the flat-stream extension series on the
// same workloads (store + full read), the paper's §1 category 1.
func BenchmarkFlatBaseline(b *testing.B) {
	cfg := benchkit.Config{PageSize: 8192, Mode: benchkit.ModeFlat, BufferBytes: benchBuffer}
	b.Run("insert", func(b *testing.B) {
		var simMS float64
		for i := 0; i < b.N; i++ {
			env, err := benchkit.BuildEnv(benchSpec(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			simMS += env.Insertion().SimMS
		}
		b.ReportMetric(simMS/float64(b.N), "sim-ms/op")
	})
	b.Run("traverse", func(b *testing.B) {
		env := buildEnv(b, cfg)
		b.ResetTimer()
		var simMS float64
		for i := 0; i < b.N; i++ {
			m, err := env.Traverse()
			if err != nil {
				b.Fatal(err)
			}
			simMS += m.SimMS
		}
		b.ReportMetric(simMS/float64(b.N), "sim-ms/op")
	})
}
