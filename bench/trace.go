package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// runTraced makes the traced run of one workload. It replays a fixed,
// single-client prefix of the workload's op stream twice — tracing off,
// then tracing on — so that the difference is the tracing overhead and
// the engine's counters over the traced window repeat exactly; then it
// runs the layer probes on the store the prefix left behind, and the
// simulated-disk leg. Spans stay in memory until the trace file is
// written at the end.
func runTraced(c *config, w workloadDef, wr *workloadReport) error {
	in := makeInputs(c.scale, c.seed)
	lim := limits{units: w.prefix(c.scale), single: true}
	pl := map[string]float64{}

	// Tracing off: the baseline of the overhead, and the allocation deltas.
	plain := newRecorder(w.Name, false)
	e, err := w.setup(c, in, false)
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err = e.drive(lim, plain)
	runtime.ReadMemStats(&m1)
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	pl["natix.alloc_bytes_per_query"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(plain.queries))
	pl["natix.allocs_per_edit"] = ratio(float64(m1.Mallocs-m0.Mallocs), float64(plain.edits))
	pl["natix.load_batch_mb_per_s"] = median(plain.unitRates("batch"))

	// Tracing on.
	rec := newRecorder(w.Name, true)
	if e, err = w.setup(c, in, true); err != nil {
		return err
	}
	if err := e.drive(lim, rec); err != nil {
		e.close()
		return err
	}
	// What a crash right now would leave: the files, without Close.
	crash := c.path("crash.natix")
	removeStore(crash)
	for _, suffix := range []string{"", "-wal"} {
		if err := copyFile(e.storePath()+suffix, crash+suffix); err != nil && !os.IsNotExist(err) {
			e.close()
			return err
		}
	}
	t := time.Now()
	if err := e.close(); err != nil {
		return err
	}
	pl["natix.close_ms"] = float64(time.Since(t).Nanoseconds()) / 1e6
	if closes := rec.lat["close"]; len(closes) > 0 { // load_bulk closes inside every round
		pl["natix.close_ms"] = median(closes) / 1e3
	}
	rec.addSpan(0, "window", "counters", "", rec.origin, rec.win.Wall, rec.win.Counters)
	counted(rec, pl)
	pl["natix.trace_overhead_pct"] = 100 * (ratio(median(w.opSamples(rec)), median(w.opSamples(plain))) - 1)

	p := &prober{rec: rec, pl: pl}
	p.probeStore(c, in, e.storePath(), e.expectDocs())
	p.probeInputs(c, in)
	p.probeRecovery(crash, w.Opts(c.scale), in, e.expectDocs())
	p.probeOpenClose(e.storePath(), w.Opts(c.scale))
	if p.err != nil {
		return p.err
	}
	if err := simLeg(c, in, pl); err != nil {
		return err
	}
	pl["natix.accounted_share"] = accounted(rec, pl)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		pl["natix.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KB
	}

	wr.fill(plain)
	wr.fill(rec)
	if wr.PerLayer, err = withUnits(perLayer, pl); err != nil {
		return err
	}
	wr.Counts = rec.win.Counters
	wr.Trace = filepath.Join(c.outDir, "trace-"+w.Name+".jsonl")
	return writeTrace(wr.Trace, rec.spans)
}

// writeTrace writes one span per line.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
