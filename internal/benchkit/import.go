package benchkit

// Import benchmarks (the perf trajectory's first entry): the streaming
// bulk path against the paper's per-node incremental procedure, on the
// same generated documents.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"natix/internal/corpus"
	"natix/internal/docstore"
	"natix/internal/xmlkit"
)

// ImportMetrics extends Metrics with import-rate figures.
type ImportMetrics struct {
	Metrics
	Docs             int
	XMLBytes         int64
	DocsPerSec       float64
	MBPerSec         float64
	RecordsCreated   int64
	RecordsRewritten int64 // ≈0 on the bulk path, O(n) incrementally
	PagesWritten     int64 // physical page writes, flush included
}

// genDocs generates and serializes n fresh plays outside any measured
// region.
type genDoc struct {
	name string
	xml  string
	tree *xmlkit.Node
}

func (e *Env) genDocs(n int, parse bool) ([]genDoc, int64, error) {
	docs := make([]genDoc, n)
	var bytes int64
	for i := range docs {
		play := corpus.GeneratePlay(e.spec, e.spec.Plays+i)
		xml := xmlkit.SerializeString(play)
		docs[i] = genDoc{name: fmt.Sprintf("import-%03d", i), xml: xml}
		bytes += int64(len(xml))
		if parse {
			parsed, err := xmlkit.ParseString(xml, xmlkit.ParseOptions{})
			if err != nil {
				return nil, 0, err
			}
			docs[i].tree = parsed.Root
		}
	}
	return docs, bytes, nil
}

// RunImport imports n freshly generated plays — through the streaming
// bulk path when bulk is true, through per-node incremental insertion
// otherwise — and reports throughput. The imported documents are
// deleted afterwards, so the env's standing corpus is untouched and the
// measurement is repeatable.
func (e *Env) RunImport(op string, n int, bulk bool) (ImportMetrics, error) {
	return e.runImport(op, n, bulk, 0)
}

// RunImportBatch imports n freshly generated plays through
// ImportXMLBatch, sharded over the given number of concurrent import
// pipelines, and reports throughput. As with RunImport, the documents
// are deleted afterwards.
func (e *Env) RunImportBatch(op string, n, workers int) (ImportMetrics, error) {
	return e.runImport(op, n, true, workers)
}

// runImport is the shared measurement loop: workers == 0 imports the
// documents one ImportXML call at a time (the serial per-document
// path); workers > 0 hands the whole corpus to ImportXMLBatch.
func (e *Env) runImport(op string, n int, bulk bool, workers int) (ImportMetrics, error) {
	// Generate and serialize outside the measured region.
	docs, bytes, err := e.genDocs(n, !bulk)
	if err != nil {
		return ImportMetrics{}, err
	}

	e.resetMeasurement()
	statsBefore := e.store.Trees().Stats()
	start := time.Now()
	if workers > 0 {
		batch := make([]docstore.ImportDoc, n)
		for i, d := range docs {
			batch[i] = docstore.ImportDoc{Name: d.name, R: strings.NewReader(d.xml)}
		}
		if _, err := e.store.ImportXMLBatch(context.Background(), batch, workers); err != nil {
			return ImportMetrics{}, fmt.Errorf("batch import: %w", err)
		}
	} else {
		for _, d := range docs {
			var err error
			if bulk {
				_, err = e.store.ImportXML(d.name, strings.NewReader(d.xml))
			} else {
				_, err = e.store.ImportTreeIncremental(d.name, d.tree)
			}
			if err != nil {
				return ImportMetrics{}, fmt.Errorf("importing %s: %w", d.name, err)
			}
		}
	}
	if err := e.pool.FlushAll(); err != nil {
		return ImportMetrics{}, err
	}
	m := e.capture(op, start, bytes)
	statsAfter := e.store.Trees().Stats()

	out := ImportMetrics{
		Metrics:          m,
		Docs:             n,
		XMLBytes:         bytes,
		RecordsCreated:   statsAfter.RecordsCreated - statsBefore.RecordsCreated,
		RecordsRewritten: statsAfter.RecordsRewritten - statsBefore.RecordsRewritten,
		PagesWritten:     m.PhysWrites,
	}
	if secs := m.WallMS / 1000; secs > 0 {
		out.DocsPerSec = float64(n) / secs
		out.MBPerSec = float64(bytes) / (1 << 20) / secs
	}

	// Leave the env as found.
	for _, d := range docs {
		if err := e.store.Delete(d.name); err != nil {
			return ImportMetrics{}, fmt.Errorf("cleaning up %s: %w", d.name, err)
		}
	}
	return out, nil
}

// ImportCell is one row of the import experiment, JSON-ready.
type ImportCell struct {
	Path             string  `json:"path"`              // "bulk" or "incremental"
	Workers          int     `json:"workers,omitempty"` // 0: serial per-document; >0: ImportXMLBatch shards
	Docs             int     `json:"docs"`
	XMLBytes         int64   `json:"xml_bytes"`
	WallMS           float64 `json:"wall_ms"`
	SimMS            float64 `json:"sim_ms"`
	DocsPerSec       float64 `json:"docs_per_sec"`
	MBPerSec         float64 `json:"mb_per_sec"`
	PagesWritten     int64   `json:"pages_written"`
	RecordsCreated   int64   `json:"records_created"`
	RecordsRewritten int64   `json:"records_rewritten"`

	// Pipeline stage times (bulk path only): CPU in the parser,
	// packer and page-flush stages, summed across shards — so on a
	// multi-core run their sum exceeds wall time.
	ParseMS float64 `json:"parse_ms,omitempty"`
	PackMS  float64 `json:"pack_ms,omitempty"`
	WriteMS float64 `json:"write_ms,omitempty"`

	// Engine is the engine-metrics delta of the measured region (every
	// counter that moved, by name).
	Engine map[string]int64 `json:"engine,omitempty"`
}

// cellOf shapes one measurement into a report row.
func cellOf(path string, workers int, m ImportMetrics) ImportCell {
	return ImportCell{
		Path:             path,
		Workers:          workers,
		Docs:             m.Docs,
		XMLBytes:         m.XMLBytes,
		WallMS:           m.WallMS,
		SimMS:            m.SimMS,
		DocsPerSec:       m.DocsPerSec,
		MBPerSec:         m.MBPerSec,
		PagesWritten:     m.PagesWritten,
		RecordsCreated:   m.RecordsCreated,
		RecordsRewritten: m.RecordsRewritten,
		ParseMS:          float64(m.Engine["docstore.import_parse_ns"]) / 1e6,
		PackMS:           float64(m.Engine["docstore.import_pack_ns"]) / 1e6,
		WriteMS:          float64(m.Engine["docstore.import_write_ns"]) / 1e6,
		Engine:           m.Engine,
	}
}

// RunImportExperiment measures both import paths over freshly generated
// plays in a native-mode store: the bulk pipeline (one serial
// per-document cell, plus one ImportXMLBatch cell per entry of workers)
// and the per-node incremental baseline.
func RunImportExperiment(spec corpus.Spec, buffer, pageSize int, workers []int) ([]ImportCell, error) {
	// A small standing corpus keeps env construction fast; the imports
	// under measurement are generated on top of it.
	base := spec
	base.Plays = 1
	env, err := BuildEnv(base, Config{
		PageSize: pageSize, BufferBytes: buffer,
		Mode: ModeNative, Order: OrderAppend,
	})
	if err != nil {
		return nil, err
	}
	n := spec.Plays
	if n < 1 {
		n = 1
	}
	var cells []ImportCell
	m, err := env.RunImport("import-bulk", n, true)
	if err != nil {
		return nil, err
	}
	cells = append(cells, cellOf("bulk", 0, m))
	for _, w := range workers {
		m, err := env.RunImportBatch(fmt.Sprintf("import-bulk-w%d", w), n, w)
		if err != nil {
			return nil, err
		}
		cells = append(cells, cellOf("bulk", w, m))
	}
	m, err = env.RunImport("import-incremental", n, false)
	if err != nil {
		return nil, err
	}
	cells = append(cells, cellOf("incremental", 0, m))
	return cells, nil
}

// PrintImportCells renders the experiment as a table.
func PrintImportCells(w io.Writer, cells []ImportCell) {
	fmt.Fprintf(w, "Import throughput (bulk streaming load vs per-node incremental)\n")
	fmt.Fprintf(w, "%-12s %7s %6s %10s %10s %10s %10s %8s %10s %10s\n",
		"path", "workers", "docs", "MB", "wall-ms", "docs/s", "MB/s", "pages", "records", "rewrites")
	for _, c := range cells {
		workers := "-"
		if c.Workers > 0 {
			workers = fmt.Sprint(c.Workers)
		}
		fmt.Fprintf(w, "%-12s %7s %6d %10.2f %10.1f %10.1f %10.2f %8d %10d %10d\n",
			c.Path, workers, c.Docs, float64(c.XMLBytes)/(1<<20), c.WallMS,
			c.DocsPerSec, c.MBPerSec, c.PagesWritten, c.RecordsCreated, c.RecordsRewritten)
	}
	bulk, incr := bulkSerialCell(cells), incrementalCell(cells)
	if bulk != nil && incr != nil && bulk.WallMS > 0 {
		fmt.Fprintf(w, "speedup: %.1fx\n", incr.WallMS/bulk.WallMS)
	}
}

func bulkSerialCell(cells []ImportCell) *ImportCell {
	for i := range cells {
		if cells[i].Path == "bulk" && cells[i].Workers == 0 {
			return &cells[i]
		}
	}
	return nil
}

func incrementalCell(cells []ImportCell) *ImportCell {
	for i := range cells {
		if cells[i].Path == "incremental" {
			return &cells[i]
		}
	}
	return nil
}

// ScalePoint is one point of the worker-scaling curve.
type ScalePoint struct {
	Workers  int     `json:"workers"`
	WallMS   float64 `json:"wall_ms"`
	SpeedupX float64 `json:"speedup_x"` // vs. the scaling baseline
}

// importReport is the BENCH_import.json schema.
type importReport struct {
	Benchmark string       `json:"benchmark"`
	Unit      string       `json:"unit"`
	Cells     []ImportCell `json:"cells"`
	// SpeedupX is incremental / serial bulk — the original experiment's
	// headline.
	SpeedupX float64 `json:"speedup_x,omitempty"`
	// BaselineWallMS, when supplied, is a reference serial bulk time to
	// scale against (a prior revision's measurement on the same host);
	// otherwise this run's serial bulk cell is the scaling baseline.
	BaselineWallMS float64      `json:"baseline_wall_ms,omitempty"`
	Scaling        []ScalePoint `json:"scaling,omitempty"`
}

// WriteImportJSON writes the experiment cells as the perf-trajectory
// baseline file. baselineMS, when positive, is an externally measured
// serial bulk wall time (an earlier revision on the same host) that the
// scaling curve is computed against; 0 scales against this run's own
// serial bulk cell.
func WriteImportJSON(w io.Writer, cells []ImportCell, baselineMS float64) error {
	rep := importReport{Benchmark: "import", Unit: "wall_ms", Cells: cells, BaselineWallMS: baselineMS}
	bulk, incr := bulkSerialCell(cells), incrementalCell(cells)
	if bulk != nil && incr != nil && bulk.WallMS > 0 {
		rep.SpeedupX = incr.WallMS / bulk.WallMS
	}
	ref := baselineMS
	if ref <= 0 && bulk != nil {
		ref = bulk.WallMS
	}
	for _, c := range cells {
		if c.Path != "bulk" || c.Workers == 0 || c.WallMS <= 0 {
			continue
		}
		rep.Scaling = append(rep.Scaling, ScalePoint{
			Workers: c.Workers, WallMS: c.WallMS, SpeedupX: ref / c.WallMS,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
