// Command natix-check is the offline integrity verifier: it opens a
// store, runs one full scrub pass (checksum sweep, cross-structure
// invariants and every tree document's record graph, WAL-based repair,
// document quarantine), prints the verdict, and encodes it in the exit
// status so scripts and CI can gate on storage health:
//
//	0  clean      — every page verified, every reference resolves
//	1  repaired   — damage was found and fully healed from the log
//	2  quarantined — damage beyond the log's reach; the named
//	                 documents are unsafe until restored
//	3  error      — the store could not be opened or scrubbed at all
//
// Usage:
//
//	natix-check -db plays.natix            # human-readable verdict
//	natix-check -db plays.natix -json      # machine-readable report
//	natix-check -db plays.natix -rate 1000 # throttle to 1000 pages/s
//
// The check opens the store read-write: restart recovery runs first
// (healing any crash-torn state exactly as a normal open would), and
// repairs are written back in place. Run it against a store no other
// process has open.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"natix"
	"natix/internal/buffer"
	"natix/internal/noderep"
	"natix/internal/pagedev"
	"natix/internal/segment"
)

func main() {
	var (
		dbPath   = flag.String("db", "natix.db", "database file")
		pageSize = flag.Int("pagesize", 8192, "page size of the store")
		rate     = flag.Int("rate", 0, "scrub rate limit in pages per second (0 = unthrottled)")
		asJSON   = flag.Bool("json", false, "emit the scrub report as JSON")
	)
	flag.Parse()

	// natix.Open would upgrade a store written before record format 5 —
	// writing to it. A verifier does not write: it names the fix instead.
	if v, ok := segmentVersion(*dbPath, *pageSize); ok && v < segment.FormatVersion {
		fatalf("%s is a segment of format version %d, written before record format %d: open it once (natix-cli or natix.Open) to upgrade it, then check it", *dbPath, v, noderep.FormatVersion)
	}

	db, err := natix.Open(natix.Options{
		Path:           *dbPath,
		PageSize:       *pageSize,
		WAL:            true,
		ScrubRateLimit: *rate,
	})
	if err != nil {
		fatalf("open: %v", err)
	}
	defer db.Close()

	rep, err := db.ScrubNow()
	if err != nil {
		fatalf("scrub: %v", err)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatalf("encode: %v", err)
		}
	} else {
		printReport(rep)
	}
	os.Exit(verdict(rep))
}

// verdict maps a scrub report to the documented exit status.
func verdict(rep *natix.ScrubReport) int {
	switch {
	case len(rep.Quarantined) > 0:
		return 2
	case !rep.Clean() || len(rep.Repaired) > 0 || rep.FSIFixed > 0:
		return 1
	default:
		return 0
	}
}

func printReport(rep *natix.ScrubReport) {
	fmt.Printf("pages verified:  %d (%d from the device, %d resident in the pool)\n",
		rep.PagesChecked+rep.PagesResident, rep.PagesChecked, rep.PagesResident)
	fmt.Printf("corrupt found:   %d\n", rep.CorruptFound)
	if rep.FSIFixed > 0 {
		fmt.Printf("fsi rebuilt:     %d\n", rep.FSIFixed)
	}
	if rep.BadRIDs > 0 {
		fmt.Printf("bad references:  %d\n", rep.BadRIDs)
	}
	if rep.BadGraphs > 0 {
		fmt.Printf("bad documents:   %d (record graph fails the invariant check)\n", rep.BadGraphs)
	}
	if len(rep.Repaired) > 0 {
		fmt.Printf("repaired:        %v (rebuilt from the log, byte-identical)\n", rep.Repaired)
	}
	if len(rep.Unrepaired) > 0 {
		fmt.Printf("unrepaired:      %v (no log image)\n", rep.Unrepaired)
	}
	if len(rep.Fenced) > 0 {
		fmt.Printf("fenced:          %v (unowned; removed from allocation)\n", rep.Fenced)
	}
	if len(rep.Quarantined) > 0 {
		names := make([]string, 0, len(rep.Quarantined))
		for name := range rep.Quarantined {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("quarantined documents:\n")
		for _, name := range names {
			fmt.Printf("  %-20s %s\n", name, rep.Quarantined[name])
		}
	}
	fmt.Printf("duration:        %v\n", rep.Duration)
	switch verdict(rep) {
	case 0:
		fmt.Println("verdict: CLEAN")
	case 1:
		fmt.Println("verdict: REPAIRED — damage found and fully healed")
	case 2:
		fmt.Println("verdict: QUARANTINED — some documents are unsafe until restored")
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "natix-check: "+format+"\n", args...)
	os.Exit(3)
}

// segmentVersion reads the segment format version of the store file at
// path, straight from its header page and without writing; false when
// there is no store there to read one from (natix.Open then reports what
// is wrong).
func segmentVersion(path string, pageSize int) (int, bool) {
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		return 0, false
	}
	dev, err := pagedev.OpenFile(path, pageSize)
	if err != nil {
		return 0, false
	}
	defer dev.Close()
	pool, err := buffer.NewSized(dev, 64<<10)
	if err != nil {
		return 0, false
	}
	seg, err := segment.Open(pool)
	if err != nil {
		return 0, false
	}
	return seg.FormatVersion(), true
}
