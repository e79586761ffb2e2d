package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"natix/internal/xmlkit"
)

// runTiny runs the whole benchmark — every workload, timed and traced,
// probes and sim leg — at tiny scale and returns its report.
func runTiny(t *testing.T, seed string, extra ...string) (*report, string) {
	t.Helper()
	dir := t.TempDir()
	out := filepath.Join(dir, "report.json")
	args := append([]string{"-scale", "tiny", "-seed", seed, "-seconds", "0.2",
		"-workdir", dir, "-outdir", dir, "-out", out}, extra...)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v: exit %d\n%s", args, code, stderr.String())
	}
	rep, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	return rep, stdout.String()
}

// declared is the part of BENCHMARK.json the tests read.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestBenchmarkJSONMatchesCatalog keeps the root BENCHMARK.json and the
// catalog in this package the same, and inside the driver's limits.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := benchmarkJSON(); !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Errorf("BENCHMARK.json differs from the catalog; regenerate it with: sh bench/run.sh -catalog > BENCHMARK.json")
	}
	d := readDeclared(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
	}
	for _, w := range d.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range d.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range d.PerLayer {
		check(m.Name, m.Unit)
	}
	if n := len(d.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(d.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	// 4 + 22 runs per workload, with set-up, inside the driver's 3420 s.
	if runs := 4 + 22*len(d.Workloads); float64(runs)*(float64(d.RunSeconds)+12) > 3420-240 {
		t.Errorf("%d runs of %d s leave no room for set-up and two builds", runs, d.RunSeconds)
	}
}

// TestAllWorkloadsTiny runs everything once and checks that every
// declared metric is reported, finite and carries the declared unit.
func TestAllWorkloadsTiny(t *testing.T) {
	rep, _ := runTiny(t, "1999")
	d := readDeclared(t)
	for _, w := range d.Workloads {
		wr := rep.Workloads[w.Name]
		if wr == nil {
			t.Fatalf("%s: not in the report", w.Name)
		}
		if !wr.Correct || wr.Failed != 0 || wr.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d (%s)", w.Name, wr.Correct, wr.Attempted, wr.Failed, wr.FirstFailure)
		}
		if len(wr.EndToEnd) != len(d.EndToEnd) || len(wr.PerLayer) != len(d.PerLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics, declared %d and %d",
				w.Name, len(wr.EndToEnd), len(wr.PerLayer), len(d.EndToEnd), len(d.PerLayer))
		}
		for _, m := range d.EndToEnd {
			v, ok := wr.EndToEnd[m.Name]
			if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %+v (present %v): must be positive and finite, in %s", w.Name, m.Name, v, ok, m.Unit)
			}
		}
		for _, m := range d.PerLayer {
			v, ok := wr.PerLayer[m.Name]
			if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer %s = %+v (present %v): must be finite, in %s", w.Name, m.Name, v, ok, m.Unit)
			}
		}
	}
	// The predictions the catalog makes about which layers are idle.
	zero := map[string][]string{
		"load_bulk":      {"core.records_rewritten_per_op", "buffer.phys_reads_per_query", "wal.bytes_per_edit"},
		"query_resident": {"buffer.phys_reads_per_query", "buffer.evictions_per_kread", "natix.write_amp", "wal.checkpoints"},
	}
	for w, names := range zero {
		for _, n := range names {
			if v := rep.Workloads[w].PerLayer[n].Value; v != 0 {
				t.Errorf("%s: %s = %v, predicted 0", w, n, v)
			}
		}
	}
}

// TestResultLine checks the driver's contract for one workload in each
// trace mode: the last line of standard output is one JSON object with
// exactly the four keys and exactly the declared metrics.
func TestResultLine(t *testing.T) {
	d := readDeclared(t)
	for trace, want := range map[string]int{"0": len(d.EndToEnd), "1": len(d.PerLayer)} {
		_, stdout := runTiny(t, "7", "-workload", "query_spill", "-trace", trace)
		lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", trace, err)
		}
		if len(line) != 4 {
			t.Errorf("trace %s: last line has keys %v", trace, reflect.ValueOf(line).MapKeys())
		}
		var res resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != want {
			t.Errorf("trace %s: %+v, want %d metrics", trace, res, want)
		}
	}
}

// TestSameSeedRepeats runs twice with one seed: what the README calls
// exact must be bit-identical — the space metric where it is declared
// exact, and every engine counter of query_resident's single-client
// traced window. A second seed must change the inputs and the op stream.
func TestSameSeedRepeats(t *testing.T) {
	a, _ := runTiny(t, "42")
	b, _ := runTiny(t, "42")
	for _, m := range endToEnd {
		for _, w := range m.exactOn {
			if va, vb := a.Workloads[w].EndToEnd[m.Name], b.Workloads[w].EndToEnd[m.Name]; va != vb {
				t.Errorf("%s %s: %v then %v with one seed", w, m.Name, va, vb)
			}
		}
	}
	ca, cb := a.Workloads["query_resident"].Counts, b.Workloads["query_resident"].Counts
	if len(ca) == 0 || !reflect.DeepEqual(ca, cb) {
		t.Errorf("query_resident traced counters differ with one seed:\n%v\n%v", ca, cb)
	}

	sc := scales["tiny"]
	x, y := makeInputs(sc, 42), makeInputs(sc, 43)
	if x.xml[0] == y.xml[0] {
		t.Error("seeds 42 and 43 generate the same first play")
	}
	n := len(x.names) * len(classes)
	if reflect.DeepEqual(x.rng("pass", 0).Perm(n), y.rng("pass", 0).Perm(n)) {
		t.Error("seeds 42 and 43 give the same pass order")
	}
	if !reflect.DeepEqual(x.rng("pass", 0).Perm(n), makeInputs(sc, 42).rng("pass", 0).Perm(n)) {
		t.Error("one seed gives two pass orders")
	}
}

// TestTraceFile parses a trace and checks the span tree: ids are unique,
// every span ends no earlier than it starts, and every child lies inside
// its parent.
func TestTraceFile(t *testing.T) {
	rep, _ := runTiny(t, "3", "-workload", "load_bulk", "-trace", "1")
	f, err := os.Open(rep.Workloads["load_bulk"].Trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans := map[int64]span{}
	var children, probes int
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		if _, dup := spans[s.ID]; dup || s.ID == 0 || s.EndNs < s.StartNs || s.Workload != "load_bulk" {
			t.Errorf("bad span %+v", s)
		}
		spans[s.ID] = s
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, s := range spans {
		switch {
		case s.Parent != 0:
			children++
			p, ok := spans[s.Parent]
			if !ok || s.StartNs < p.StartNs || s.EndNs > p.EndNs {
				t.Errorf("span %+v is not inside its parent %+v", s, p)
			}
		case s.Layer != "harness" && s.Layer != "window":
			probes++
		}
	}
	if children == 0 || probes == 0 {
		t.Errorf("trace has %d child spans and %d probe spans", children, probes)
	}
}

// TestCompare checks the comparison tool's three verdicts.
func TestCompare(t *testing.T) {
	rep, _ := runTiny(t, "11", "-workload", "query_resident", "-trace", "0")
	dir := t.TempDir()
	write := func(name string, edit func(*report)) string {
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatal(err)
		}
		edit(&r)
		if b, err = json.Marshal(&r); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	scaleMetric := func(name string, by float64) func(*report) {
		return func(r *report) {
			e := r.Workloads["query_resident"].EndToEnd
			e[name] = value{Value: e[name].Value * by, Unit: e[name].Unit}
		}
	}
	base := write("base.json", func(*report) {})
	for _, tc := range []struct {
		name string
		edit func(*report)
		want int
	}{
		{"same", func(*report) {}, 0},
		{"within", scaleMetric("op_p50_us", 1.2), 0},
		{"better", scaleMetric("mb_per_s", 3), 0},
		{"slower", scaleMetric("op_p50_us", 1.3), 1},
		{"less", scaleMetric("mb_per_s", 0.7), 1},
		{"inexact", scaleMetric("space_per_user_byte", 1.001), 1},
	} {
		var stdout, stderr bytes.Buffer
		if got := compareReports(base, write(tc.name+".json", tc.edit), &stdout, &stderr); got != tc.want {
			t.Errorf("%s: exit %d, want %d\n%s%s", tc.name, got, tc.want, stdout.String(), stderr.String())
		}
	}
}

// TestOracle pins the reference evaluator's semantics on a tree small
// enough to check by hand.
func TestOracle(t *testing.T) {
	doc, err := xmlkit.ParseString(`<A><B><C>x</C><C>yy</C></B><B><C>zzz</C><D/></B><C>w</C></A>`, xmlkit.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cl   class
		want answer
	}{
		{class{Expr: "/A/B/C", Kind: kindText}, answer{3, 6}},
		{class{Expr: "//C", Kind: kindText}, answer{4, 7}},
		{class{Expr: "/A/B[2]/C", Kind: kindText}, answer{1, 3}},
		{class{Expr: "//B/C[1]", Kind: kindMarkup}, answer{2, int64(len("<C>x</C><C>zzz</C>"))}},
		{class{Expr: "/A/B[2]/*", Kind: kindMarkup}, answer{2, int64(len("<C>zzz</C><D/>"))}},
		{class{Expr: "//C", Kind: kindText, Limit: 2}, answer{2, 3}},
		{class{Expr: "//A", Kind: kindCount}, answer{1, 0}},
		{class{Expr: "/B", Kind: kindCount}, answer{0, 0}},
		{class{Expr: "//C/#text", Kind: kindText}, answer{4, 7}},
		{class{Kind: kindExport}, answer{1, int64(len(xmlkit.SerializeString(doc.Root)))}},
	} {
		if got := reference(doc.Root, tc.cl); got != tc.want {
			t.Errorf("%q: got %+v, want %+v", tc.cl.Expr, got, tc.want)
		}
	}
}
