package main

import "encoding/json"

// The catalog: every workload and every metric this benchmark reports,
// with unit, direction and (end to end) regression bound. BENCHMARK.json
// at the repository root declares the same lists to the driver; the
// package's tests fail when the two disagree.

// env is one workload's prepared state: its inputs, its store, whatever
// must exist before the timed window opens.
type env interface {
	// drive runs the workload's op stream until lim and records what
	// happened; it checks every result it gets.
	drive(lim limits, rec *recorder) error
	// endToEnd derives the end-to-end metrics (all but setup_s).
	endToEnd(rec *recorder) map[string]float64
	// storePath is the store file the layer probes read after close,
	// expectDocs the documents it must hold, by corpus play.
	storePath() string
	expectDocs() map[string]int
	close() error
}

type workloadDef struct {
	Name    string
	Why     string
	Opts    func(scale) storeOpts
	Clients string // who drives it, for the run header
	Flush   string // flush policy, for the run header
	setup   func(c *config, in *inputs, tracing bool) (env, error)
	prefix  func(scale) int // units in the traced prefix
	// opClasses are the op classes whose pooled latency is the
	// workload's op_p50_us and op_p95_us.
	opClasses []string
}

var workloads = []workloadDef{
	{
		Name:      "load_bulk",
		Why:       "streaming write path only: parse, bulk packing, batch writer, WAL, write-back; evaluators and reads idle",
		Opts:      loadOpts,
		Clients:   "1, closed loop",
		Flush:     "fsync per commit; checkpoint and close inside every timed round",
		setup:     setupLoad,
		prefix:    func(s scale) int { return s.PrefixRounds },
		opClasses: []string{"import_doc"},
	},
	{
		Name:      "edit_incr",
		Why:       "the paper's node-by-node insert-and-split in BFS order: many tiny logged ops, a reader beside the writer",
		Opts:      editOpts,
		Clients:   "1 writer + 1 reader, closed loop",
		Flush:     "NoSync (no fsync per op); auto-checkpoint every 8 MB of log",
		setup:     setupEdit,
		prefix:    func(s scale) int { return s.PrefixPlays },
		opClasses: []string{"edit"},
	},
	{
		Name:      "query_resident",
		Why:       "file fits the pool, one warmed client: evaluators, path index, navigation, decode; buffer and device idle",
		Opts:      residentOpts,
		Clients:   "1, closed loop",
		Flush:     "read only",
		setup:     setupResident,
		prefix:    func(s scale) int { return s.PrefixPasses },
		opClasses: selectNames(""),
	},
	{
		Name:      "query_spill",
		Why:       "same passes, data 6.5x the 2 MB pool, 2 cold clients: miss, evict, prefetch, checksum, file reads, contention",
		Opts:      spillOpts,
		Clients:   "min(2, nproc), closed loop",
		Flush:     "read only",
		setup:     setupSpill,
		prefix:    func(s scale) int { return s.PrefixPasses },
		opClasses: selectNames(""),
	},
}

func (w workloadDef) opSamples(rec *recorder) []float64 { return rec.pooled(w.opClasses) }

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end to end only: share of the baseline median
	// exactOn lists the workloads on which the value must repeat
	// bit-identically for one commit and seed.
	exactOn []string
}

// endToEnd metrics are measured with tracing off, on every workload.
// What "operation" and "user bytes" mean is per workload:
//
//	load_bulk       op = one ImportXML call; bytes = XML imported, per
//	                ImportXML round including checkpoint and close
//	edit_incr       op = one InsertElement/InsertText/DeleteNode;
//	                bytes = XML of the plays built, per play
//	query_resident  op = one select-class query; bytes = result bytes of
//	query_spill     the bulk classes over their own time, all clients
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "op_p95_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "mb_per_s", Unit: "MB/s", Better: "higher", Bound: 0.25},
	{Name: "space_per_user_byte", Unit: "B/B", Better: "lower", Bound: 0.05,
		exactOn: []string{"load_bulk", "query_resident", "query_spill"}},
}

func (m metricDef) exact(workload string) bool {
	for _, w := range m.exactOn {
		if w == workload {
			return true
		}
	}
	return false
}

// runSeconds is the timed window the driver is told to ask for.
const runSeconds = 15

// benchmarkJSON renders the catalog as the root BENCHMARK.json.
func benchmarkJSON() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerMetric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workload    `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []layerMetric `json:"per_layer"`
	}{
		Command:    []string{"sh", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workload{w.Name, w.Why})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerMetric{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the catalog is static data
	}
	return out
}
