package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output: the driver's contract.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is the JSON document a run prints: the host and settings it
// ran with, then every metric of every workload it ran.
type report struct {
	Header    header                     `json:"header"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type header struct {
	Time       string  `json:"time"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Device     string  `json:"device"`
	Filesystem string  `json:"filesystem"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      scale   `json:"scale"`
	PageSize   int     `json:"page_size"`
	Plays      int     `json:"plays"`
}

type workloadReport struct {
	Options     storeOpts `json:"options"`
	Clients     string    `json:"clients"`
	FlushPolicy string    `json:"flush_policy"`

	Correct      bool   `json:"correct"`
	Attempted    int64  `json:"attempted"`
	Failed       int64  `json:"failed"`
	FirstFailure string `json:"first_failure,omitempty"`

	EndToEnd map[string]value `json:"end_to_end,omitempty"`
	PerLayer map[string]value `json:"per_layer,omitempty"`

	// Samples is the number of latency samples behind each op class,
	// Units the number of completed rounds, plays or passes by kind.
	Samples map[string]int   `json:"samples,omitempty"`
	Units   map[string]int   `json:"units,omitempty"`
	Setups  []float64        `json:"setup_runs_s,omitempty"`
	Info    map[string]any   `json:"info,omitempty"`
	Trace   string           `json:"trace_file,omitempty"`
	Counts  map[string]int64 `json:"traced_counters,omitempty"`
}

func newReport(c *config) *report {
	return &report{
		Header: header{
			Time:       time.Now().UTC().Format(time.RFC3339),
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Commit:     commit(),
			Device:     "file (pagedev.File; reads served by the OS page cache)",
			Filesystem: filesystem(c.workDir),
			Seed:       c.seed,
			Seconds:    c.seconds,
			Scale:      c.scale,
			PageSize:   pageSize,
			Plays:      c.scale.spec.Plays,
		},
		Workloads: map[string]*workloadReport{},
	}
}

// commit is the VCS revision the binary was built from, when the build
// could see one (the driver's checkouts are not git repositories).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// filesystem names the filesystem holding dir by its statfs magic.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0x01021994: "tmpfs", 0xEF53: "ext4", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// fill copies a drive's outcome into the report.
func (wr *workloadReport) fill(rec *recorder) {
	wr.Attempted += rec.attempted
	wr.Failed += rec.failed
	if wr.FirstFailure == "" {
		wr.FirstFailure = rec.firstFailure
	}
	wr.Correct = wr.Failed == 0
}

func counts(rec *recorder) (samples, units map[string]int) {
	samples, units = map[string]int{}, map[string]int{}
	for class, s := range rec.lat {
		samples[class] = len(s)
	}
	for _, u := range rec.units {
		units[u.Kind]++
	}
	return samples, units
}

// withUnits pairs measured values with the catalog: exactly the
// catalog's metrics must have been measured, and each must be a number.
func withUnits(defs []metricDef, vals map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s: not measured (%v)", d.Name, v)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	if len(vals) != len(defs) {
		for name := range vals {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s: measured but not in the catalog", name)
			}
		}
	}
	return out, nil
}

// setupRepeats is how many times a timed run sets up before it drives:
// setup_s is the median, so that one slow set-up does not read as a
// regression.
const setupRepeats = 5

// runTimed makes the timed run of one workload: set up, drive for
// c.seconds with tracing off, derive the end-to-end metrics.
func runTimed(c *config, w workloadDef, wr *workloadReport) error {
	var e env
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return err
			}
		}
		t := time.Now()
		var err error
		if e, err = w.setup(c, makeInputs(c.scale, c.seed), false); err != nil {
			return err
		}
		wr.Setups = append(wr.Setups, time.Since(t).Seconds())
	}
	rec := newRecorder(w.Name, false)
	if err := e.drive(limits{seconds: c.seconds}, rec); err != nil {
		e.close()
		return err
	}
	vals := e.endToEnd(rec)
	if err := e.close(); err != nil {
		return err
	}
	vals["setup_s"] = median(wr.Setups)
	wr.fill(rec)
	wr.Samples, wr.Units = counts(rec)
	wr.Info = rec.info
	var err error
	wr.EndToEnd, err = withUnits(endToEnd, vals)
	return err
}
