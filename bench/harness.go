package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"natix"
)

// Store options are stated, not tuned: everything not listed here is the
// store's default, so the compressed tier-2 cache is off, as it is for
// users.
const pageSize = 8192

// traceRing bounds the store's trace ring in traced runs; the harness
// drains it every drainEvery operations, so it never wraps.
const (
	traceRing  = 8192
	drainEvery = 1024
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	scale   scale
	workDir string // store files; created and removed by the run
	outDir  string // trace files
}

// storeOpts are the options a workload opens its store with.
type storeOpts struct {
	PoolBytes int  `json:"pool_bytes"`
	NoSync    bool `json:"no_sync"`
}

func (o storeOpts) open(path string, tracing bool) (*natix.DB, error) {
	return natix.Open(natix.Options{
		Path:        path,
		PageSize:    pageSize,
		BufferBytes: o.PoolBytes,
		PathIndex:   true,
		WAL:         true,
		NoSync:      o.NoSync,
		Tracing:     tracing,
		TraceBuffer: traceRing,
	})
}

// removeStore deletes a store file and its log.
func removeStore(path string) {
	os.Remove(path)
	os.Remove(path + "-wal")
}

// limits bound one drive of a workload: the timed run stops at a
// deadline, the traced prefix after a fixed number of units (rounds,
// plays or passes) so that its counts repeat exactly.
type limits struct {
	seconds float64 // 0 = no deadline
	units   int     // 0 = no unit limit
	single  bool    // one client only (the traced prefix)
}

// expired reports whether the deadline, if any, has passed.
func (l limits) expired(start time.Time) bool {
	return l.seconds > 0 && time.Since(start).Seconds() >= l.seconds
}

// done reports whether a drive that has completed units units stops.
func (l limits) done(start time.Time, units int) bool {
	return (l.units > 0 && units >= l.units) || l.expired(start)
}

// unit is one completed round, play or pass: how many user bytes it
// moved in how long.
type unit struct {
	Kind  string
	Bytes int64
	Dur   time.Duration
}

// window is what the engine's own counters say happened while the
// harness drove it (the R metrics): counter and histogram-sum deltas
// from DB.Metrics over the driven interval.
type window struct {
	Wall     time.Duration
	Counters map[string]int64
	HistSums map[string]int64
}

func (w *window) add(before, after natix.Metrics, wall time.Duration) {
	if w.Counters == nil {
		w.Counters, w.HistSums = map[string]int64{}, map[string]int64{}
	}
	w.Wall += wall
	for n, v := range after.Counters {
		w.Counters[n] += v - before.Counters[n]
	}
	for n, h := range after.Histograms {
		w.HistSums[n] += h.Sum - before.Histograms[n].Sum
	}
}

// span is one line of the trace file. Harness spans (Layer "harness")
// wrap one facade call each; their children are the engine's own
// docstore spans; probe spans time one batch of calls into one layer.
type span struct {
	ID       int64            `json:"id"`
	Parent   int64            `json:"parent,omitempty"`
	Workload string           `json:"workload"`
	Layer    string           `json:"layer"`
	Op       string           `json:"op"`
	Doc      string           `json:"doc,omitempty"`
	StartNs  int64            `json:"start_ns"` // since the recorder was created
	EndNs    int64            `json:"end_ns"`
	Attrs    map[string]int64 `json:"attrs,omitempty"`
	Phases   map[string]int64 `json:"phases_ns,omitempty"` // engine child phases: durations only
}

// recorder collects what one drive of a workload observed.
type recorder struct {
	workload string
	origin   time.Time
	tracing  bool

	attempted, failed int64
	firstFailure      string

	lat   map[string][]float64 // µs per op, by op class
	units []unit
	win   window

	// Tallies the R ratios are taken against.
	docs, edits, queries, matches int64
	written                       int64 // XML bytes imported or built

	spans   []span
	nextID  int64
	drained int // harness spans already matched against engine traces
	info    map[string]any
}

func newRecorder(workload string, tracing bool) *recorder {
	return &recorder{workload: workload, origin: time.Now(), tracing: tracing,
		lat: map[string][]float64{}, info: map[string]any{}}
}

// fail counts n operations as failed (error or wrong answer).
func (r *recorder) fail(n int64, format string, args ...any) {
	r.failed += n
	if r.firstFailure == "" {
		r.firstFailure = fmt.Sprintf(format, args...)
	}
}

// observe records one facade call.
func (r *recorder) observe(class, doc string, start time.Time, d time.Duration) {
	r.lat[class] = append(r.lat[class], float64(d.Nanoseconds())/1e3)
	if r.tracing {
		r.addSpan(0, "harness", class, doc, start, d, nil)
	}
}

func (r *recorder) addSpan(parent int64, layer, op, doc string, start time.Time, d time.Duration, attrs map[string]int64) int64 {
	r.nextID++
	s := start.Sub(r.origin).Nanoseconds()
	r.spans = append(r.spans, span{ID: r.nextID, Parent: parent, Workload: r.workload,
		Layer: layer, Op: op, Doc: doc, StartNs: s, EndNs: s + d.Nanoseconds(), Attrs: attrs})
	return r.nextID
}

// drain attaches the engine's completed traces to the harness spans
// that caused them. It runs between operations of a single client, so
// the harness spans since the last drain are disjoint and ordered and
// an engine trace belongs to the one that contains its start.
func (r *recorder) drain(db *natix.DB, force bool) {
	if !r.tracing || (!force && len(r.spans)-r.drained < drainEvery) {
		return
	}
	traces, err := db.RecentTraces()
	if err != nil {
		r.fail(1, "RecentTraces: %v", err)
		return
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i].Start.Before(traces[j].Start) })
	parents := r.spans[r.drained:len(r.spans):len(r.spans)]
	p := 0
	for _, t := range traces {
		s := t.Start.Sub(r.origin).Nanoseconds()
		for p < len(parents) && parents[p].EndNs < s {
			p++
		}
		if p == len(parents) {
			break
		}
		if par := parents[p]; par.Layer == "harness" && par.StartNs <= s && s+t.Duration.Nanoseconds() <= par.EndNs {
			attrs := map[string]int64{}
			for _, a := range t.Attrs {
				attrs[a.Key] = a.Val
			}
			id := r.addSpan(par.ID, "docstore", t.Op, t.Doc, t.Start, t.Duration, attrs)
			if len(t.Phases) > 0 {
				ph := map[string]int64{}
				for _, x := range t.Phases {
					ph[x.Op] += x.Duration.Nanoseconds()
				}
				r.spans[id-1].Phases = ph
			}
		}
	}
	r.drained = len(r.spans)
}

// p50 is the median latency of one op class in µs.
func (r *recorder) p50(class string) float64 {
	return median(r.lat[class])
}

// pooled concatenates the samples of several op classes.
func (r *recorder) pooled(names []string) []float64 {
	var out []float64
	for _, n := range names {
		out = append(out, r.lat[n]...)
	}
	return out
}

// unitRates returns the MB/s of every completed unit of one kind.
func (r *recorder) unitRates(kind string) []float64 {
	var out []float64
	for _, u := range r.units {
		if u.Kind == kind && u.Dur > 0 {
			out = append(out, float64(u.Bytes)/1e6/u.Dur.Seconds())
		}
	}
	return out
}

// fileSize returns the size of path in bytes (0 if it does not exist).
func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

func (c *config) path(name string) string { return filepath.Join(c.workDir, name) }

// merge folds a concurrent client's recorder into r.
func (r *recorder) merge(o *recorder) {
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstFailure == "" {
		r.firstFailure = o.firstFailure
	}
	for class, s := range o.lat {
		r.lat[class] = append(r.lat[class], s...)
	}
	r.units = append(r.units, o.units...)
	r.docs += o.docs
	r.edits += o.edits
	r.queries += o.queries
	r.matches += o.matches
	r.written += o.written
}

func sumDur(units []unit, kind string) time.Duration {
	var d time.Duration
	for _, u := range units {
		if u.Kind == kind {
			d += u.Dur
		}
	}
	return d
}
