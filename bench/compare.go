package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareReports prints one row per workload and end-to-end metric of
// two reports (a the baseline, b the candidate): both values, how much
// worse b is as a share of a, and the bound. It returns 1 if any metric
// is worse by more than its bound, if a metric that must repeat exactly
// differs between two runs of the same seed and scale, or if either run
// had failed operations.
func compareReports(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readReport(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readReport(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	sameInputs := a.Header.Seed == b.Header.Seed && a.Header.Scale.Name == b.Header.Scale.Name
	if !sameInputs {
		fmt.Fprintf(stdout, "note: seeds or scales differ (%d/%s vs %d/%s); exact metrics are not checked\n",
			a.Header.Seed, a.Header.Scale.Name, b.Header.Seed, b.Header.Scale.Name)
	}
	code, rows := 0, 0
	fmt.Fprintf(stdout, "%-15s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "verdict")
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil || wa.EndToEnd == nil || wb.EndToEnd == nil {
			continue
		}
		if !wa.Correct || !wb.Correct {
			fmt.Fprintf(stdout, "%-15s failed operations: a %d, b %d\n", w.Name, wa.Failed, wb.Failed)
			code = 1
		}
		for _, m := range endToEnd {
			va, vb := wa.EndToEnd[m.Name].Value, wb.EndToEnd[m.Name].Value
			worse := ratio(vb-va, va)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case sameInputs && m.exact(w.Name) && va != vb:
				verdict, code = "NOT EXACT", 1
			case worse > m.Bound:
				verdict, code = "REGRESSION", 1
			}
			fmt.Fprintf(stdout, "%-15s %-20s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n",
				w.Name, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
			rows++
		}
	}
	if rows == 0 {
		fmt.Fprintln(stderr, "bench: the reports have no timed workload in common")
		return 2
	}
	return code
}
