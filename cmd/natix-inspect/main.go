// Command natix-inspect dumps the physical structure of a NATIX store:
// the segment layout, per-page occupancy, and the record tree of each
// stored document, annotated with the paper's terminology (standalone/
// embedded, facade/scaffolding, aggregates/literals/proxies).
//
// Usage:
//
//	natix-inspect -db plays.natix                 # segment summary
//	natix-inspect -db plays.natix -pages          # per-page occupancy
//	natix-inspect -db plays.natix -doc othello    # record tree of a doc
//	natix-inspect -db plays.natix -check          # verify invariants
//	natix-inspect -db plays.natix -checksum       # CRC-sweep every page
//	natix-inspect -db plays.natix -pathindex      # path summaries + postings
//	natix-inspect -db plays.natix -wal            # dump the write-ahead log
//	natix-inspect -db plays.natix -check -metrics # + I/O profile of the check
//	natix-inspect -db plays.natix -check -traces  # + per-phase timings
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"time"

	"natix/internal/buffer"
	"natix/internal/core"
	"natix/internal/dict"
	"natix/internal/docstore"
	"natix/internal/noderep"
	"natix/internal/pagedev"
	"natix/internal/pageformat"
	"natix/internal/pathindex"
	"natix/internal/records"
	"natix/internal/segment"
	"natix/internal/telemetry"
	"natix/internal/wal"
)

func main() {
	var (
		dbPath   = flag.String("db", "natix.db", "database file")
		pageSize = flag.Int("pagesize", 8192, "page size of the store")
		pages    = flag.Bool("pages", false, "list per-page occupancy")
		doc      = flag.String("doc", "", "dump the record tree of this document")
		check    = flag.Bool("check", false, "verify invariants of every document")
		checksum = flag.Bool("checksum", false, "verify the CRC of every allocated page, straight from the device")
		pathIdx  = flag.Bool("pathindex", false, "dump path summaries and postings sizes")
		walDump  = flag.Bool("wal", false, "dump the write-ahead log (<db>-wal) and exit")
		metrics  = flag.Bool("metrics", false, "print the engine metrics the inspection generated")
		traces   = flag.Bool("traces", false, "print per-phase timings of the inspection")
	)
	flag.Parse()

	if *walDump {
		dumpWAL(*dbPath + "-wal")
		return
	}

	dev, err := pagedev.OpenFile(*dbPath, *pageSize)
	if err != nil {
		fatalf("open: %v", err)
	}
	defer dev.Close()
	pool, err := buffer.NewSized(dev, 4<<20)
	if err != nil {
		fatalf("%v", err)
	}
	seg, err := segment.Open(pool)
	if err != nil {
		fatalf("open segment: %v", err)
	}
	if v := seg.FormatVersion(); v < segment.FormatVersion {
		fatalf("%s is a segment of format version %d, written before record format %d: open it once (natix-cli or natix.Open) to upgrade it", *dbPath, v, noderep.FormatVersion)
	}
	rm := records.New(seg)
	d, err := dict.Open(rm)
	if err != nil {
		fatalf("open dictionary: %v", err)
	}
	trees := core.New(rm, core.Config{})
	store, err := docstore.Open(trees, d)
	if err != nil {
		fatalf("open docstore: %v", err)
	}

	// The inspection session is itself instrumented: -metrics reports
	// the I/O its walks generated (every page access goes through the
	// same counters the engine uses), -traces times each phase.
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(telemetry.TracerOptions{Enabled: *traces})
	pool.AttachTelemetry(reg)
	trees.AttachTelemetry(reg)
	store.AttachTelemetry(reg, nil)

	phase := func(op string, fn func()) {
		sp := tracer.Start("inspect:" + op)
		fn()
		sp.End()
	}

	fmt.Printf("segment: %d pages × %d bytes = %d bytes, format version %d (record format %d)\n",
		seg.NumPages(), seg.PageSize(), seg.TotalBytes(), seg.FormatVersion(), noderep.FormatVersion)
	fmt.Printf("labels:  %d in dictionary\n", d.Len())
	fmt.Printf("documents:\n")
	for _, info := range store.Documents() {
		mode := "tree"
		if info.Mode == docstore.ModeFlat {
			mode = "flat"
		}
		fmt.Printf("  %-8s %-20s root %s\n", mode, info.Name, info.Root)
	}

	if *pages {
		phase("pages", func() { dumpPages(seg, pool, store, trees) })
	}
	if *doc != "" {
		phase("doc", func() { dumpDoc(store, trees, d, *doc) })
	}
	if *check {
		phase("check", func() { checkAll(store) })
	}
	if *checksum {
		phase("checksum", func() { sweepChecksums(dev, seg) })
	}
	if *pathIdx {
		phase("pathindex", func() { dumpPathIndex(rm, d) })
	}
	if *metrics {
		dumpMetrics(reg)
	}
	if *traces {
		dumpTraces(tracer)
	}
}

// alwaysShow are counters printed even at zero, where "0" is itself
// diagnostic: no write-back runs coalesced.
var alwaysShow = map[string]bool{
	"buffer.coalesced_write_runs": true,
}

// dumpMetrics prints every non-zero counter and histogram the
// inspection session accumulated (plus alwaysShow, zero or not),
// sorted by name.
func dumpMetrics(reg *telemetry.Registry) {
	snap := reg.Snapshot()
	fmt.Printf("\nengine metrics of this inspection:\n")
	names := make([]string, 0, len(snap.Counters))
	for name, v := range snap.Counters {
		if v != 0 || alwaysShow[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-32s %12d\n", name, snap.Counters[name])
	}
	hists := make([]string, 0, len(snap.Histograms))
	for name, h := range snap.Histograms {
		if h.Count != 0 {
			hists = append(hists, name)
		}
	}
	sort.Strings(hists)
	for _, name := range hists {
		h := snap.Histograms[name]
		fmt.Printf("  %-32s %12d obs, mean %v, p99 %v\n", name, h.Count,
			time.Duration(h.Mean()).Round(time.Microsecond),
			time.Duration(h.Quantile(0.99)).Round(time.Microsecond))
	}
}

// dumpTraces prints the recorded inspection phases, oldest first.
func dumpTraces(tracer *telemetry.Tracer) {
	traces := tracer.RecentTraces()
	fmt.Printf("\ninspection phases:\n")
	for i := len(traces) - 1; i >= 0; i-- {
		tr := traces[i]
		fmt.Printf("  %-20s %v\n", tr.Op, tr.Duration.Round(time.Microsecond))
		for _, ph := range tr.Phases {
			fmt.Printf("    %-18s %v\n", ph.Op, ph.Duration.Round(time.Microsecond))
		}
	}
}

// dumpPathIndex prints each indexed document's path summary (every
// distinct label path with its occurrence count), the version its index
// is stored in — 2 until ReindexDocument rewrites it — and what each
// posting list costs.
func dumpPathIndex(rm *records.Manager, d *dict.Dict) {
	px, err := pathindex.Open(rm)
	if err != nil {
		fatalf("open path index: %v", err)
	}
	names := px.Names()
	if len(names) == 0 {
		fmt.Printf("\npath index: no indexed documents\n")
		return
	}
	for _, name := range names {
		idx, err := px.Get(name)
		if err != nil {
			fatalf("%v", err)
		}
		size, err := px.BlobSize(name)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("\npath index of %q: format version %d, %d nodes, %d paths, %d bytes\n",
			name, idx.FormatVersion(), idx.NumNodes(), idx.NumPaths(), size)
		fmt.Printf("  summary:\n")
		for id := pathindex.PathID(1); int(id) <= idx.NumPaths(); id++ {
			fmt.Printf("    %-50s %7d\n", pathString(idx, d, id), idx.Path(id).Count)
		}
		fmt.Printf("  postings:\n")
		for _, label := range idx.PostingLabels() {
			lname, err := d.Name(label)
			if err != nil {
				lname = fmt.Sprintf("label#%d", label)
			}
			bytes, err := idx.PostingSize(label)
			if err != nil {
				fatalf("%v", err)
			}
			list, err := idx.Postings(label)
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Printf("    %-20s %7d postings %6d runs %9d bytes %6.2f B/posting\n",
				lname, len(list), pathindex.Runs(list), bytes, float64(bytes)/float64(max(len(list), 1)))
		}
	}
}

// pathString renders a summary path like /PLAY/ACT/SCENE.
func pathString(idx *pathindex.Handle, d *dict.Dict, id pathindex.PathID) string {
	var labels []string
	for id != pathindex.NilPath {
		pn := idx.Path(id)
		name, err := d.Name(pn.Label)
		if err != nil {
			name = fmt.Sprintf("label#%d", pn.Label)
		}
		labels = append(labels, name)
		id = pn.Parent
	}
	out := ""
	for i := len(labels) - 1; i >= 0; i-- {
		out += "/" + labels[i]
	}
	return out
}

// sweepChecksums reads every allocated page straight from the device —
// not through the buffer pool — and verifies its CRC, so the bytes on
// the platter are what gets judged. Pages whose magic is unreadable are
// reported as such (their checksum field cannot be trusted to be one).
// Exit status 1 if anything fails; this is the read-only cousin of
// natix-check, which also repairs.
func sweepChecksums(dev pagedev.Device, seg *segment.Segment) {
	fmt.Printf("\nchecksum sweep:\n")
	buf := make([]byte, seg.PageSize())
	var bad int
	for p := pagedev.PageNo(0); p < pagedev.PageNo(seg.NumPages()); p++ {
		if err := dev.Read(p, buf); err != nil {
			fmt.Printf("  page %-8d READ ERROR: %v\n", p, err)
			bad++
			continue
		}
		role := "data"
		switch {
		case p == 0:
			role = "header"
		case seg.IsFSIPage(p):
			role = "fsi"
		}
		if pageformat.TypeOf(buf) == pageformat.TypeInvalid {
			fmt.Printf("  page %-8d (%s) no page magic — unformatted or corrupt header\n", p, role)
			continue
		}
		if err := pageformat.VerifyChecksum(buf); err != nil {
			fmt.Printf("  page %-8d (%s) FAIL: %v\n", p, role, err)
			bad++
		}
	}
	if bad == 0 {
		fmt.Printf("  all %d pages verified\n", seg.NumPages())
		return
	}
	fmt.Printf("  %d of %d pages failed\n", bad, seg.NumPages())
	os.Exit(1)
}

func dumpPages(seg *segment.Segment, pool *buffer.Pool, store *docstore.Store, trees *core.Store) {
	fmt.Printf("\npage occupancy:\n")
	free := map[pagedev.PageNo]int{}
	err := seg.ForEachDataPage(func(p pagedev.PageNo) error {
		f, err := pool.Get(p)
		if err != nil {
			return err
		}
		defer f.Release()
		sl, err := pageformat.AsSlotted(f.Data())
		if err != nil {
			fmt.Printf("  page %-8d (unformatted)\n", p)
			return nil
		}
		free[p] = sl.FreeBytes()
		fmt.Printf("  page %-8d %3d records, %5d bytes used, %5d free\n",
			p, sl.LiveCells(), sl.UsedBytes(), sl.FreeBytes())
		return nil
	})
	if err != nil {
		fatalf("pages: %v", err)
	}
	dumpBytes(seg, free, store, trees)
}

// dumpBytes closes -pages with the rows of DESIGN.md's "Where the file's
// bytes go": the documents' records (all of record format 5: the tool
// refuses a store that has not been upgraded), the free bytes in
// allocated pages, the path-index blobs, everything else, the fill over
// the pages that hold records, the text-only elements (stored under one
// header) and what the store spends on structure: the record bytes that
// are not literal payload, per logical node. free is the free byte count
// of every data page.
func dumpBytes(seg *segment.Segment, free map[pagedev.PageNo]int, store *docstore.Store, trees *core.Store) {
	rm := trees.Records()
	var count, recordBytes int64
	var logical, fused, payload int64
	recordPages := map[pagedev.PageNo]bool{}
	census := func(rid records.RID, rec *noderep.Record) error {
		n, err := rm.Size(rid)
		if err != nil {
			return fmt.Errorf("record %s: %w", rid, err)
		}
		page, err := rm.PageOf(rid)
		if err != nil {
			return fmt.Errorf("record %s: %w", rid, err)
		}
		count++
		recordBytes += int64(n)
		recordPages[page] = true
		rec.Root.Walk(func(n *noderep.Node) bool {
			if !n.Scaffold {
				logical++
			}
			payload += int64(len(n.Payload))
			if n.FusedText() != nil {
				fused++
			}
			return true
		})
		return nil
	}
	for _, info := range store.Documents() {
		if info.Mode != docstore.ModeTree {
			continue
		}
		if err := trees.OpenTree(info.Root).WalkRecords(census); err != nil {
			fatalf("document %s: %v", info.Name, err)
		}
	}
	px, err := pathindex.Open(rm)
	if err != nil {
		fatalf("open path index: %v", err)
	}
	var index int64
	for _, name := range px.Names() {
		n, err := px.BlobSize(name)
		if err != nil {
			fatalf("%v", err)
		}
		index += n
	}
	var freeAll, freeRecordPages int64
	for p, n := range free {
		freeAll += int64(n)
		if recordPages[p] {
			freeRecordPages += int64(n)
		}
	}
	fmt.Printf("\nwhere the file's bytes go:\n")
	fmt.Printf("  %-46s %12d  (%d records)\n", fmt.Sprintf("record bytes, format %d", noderep.FormatVersion), recordBytes, count)
	fmt.Printf("  %-46s %12d\n", "free bytes in allocated pages", freeAll)
	fmt.Printf("  %-46s %12d\n", "index blobs", index)
	fmt.Printf("  %-46s %12d\n", "page headers, slots, FSI, dictionary, catalogs", seg.TotalBytes()-recordBytes-freeAll-index)
	fmt.Printf("  %-46s %12d\n", "file", seg.TotalBytes())
	if n := int64(len(recordPages)); n > 0 {
		fmt.Printf("  %-46s %12.3f  (%d pages)\n", "fill over record pages",
			1-float64(freeRecordPages)/float64(n*int64(seg.PageSize())), n)
	}
	fmt.Printf("  %-46s %12d\n", "elements fused with their text", fused)
	if logical > 0 {
		fmt.Printf("  %-46s %12.2f  (%d record bytes - %d literal payload bytes, %d logical nodes)\n",
			"structural bytes per node", float64(recordBytes-payload)/float64(logical), recordBytes, payload, logical)
	}
}

func dumpDoc(store *docstore.Store, trees *core.Store, d *dict.Dict, name string) {
	info, err := store.Lookup(name)
	if err != nil {
		fatalf("%v", err)
	}
	if info.Mode != docstore.ModeTree {
		fatalf("%q is flat; nothing to dump", name)
	}
	fmt.Printf("\nrecord tree of %q:\n", name)
	dumpRecord(trees, d, info.Root, 0, map[records.RID]bool{})
}

// dumpRecord prints record rid and, where each of its proxies stands, the
// record the proxy points to. A record printed before is named, not
// printed again: a damaged store may reach a record twice, or in a cycle.
func dumpRecord(trees *core.Store, d *dict.Dict, rid records.RID, depth int, printed map[records.RID]bool) {
	indent := ""
	for i := 0; i < depth; i++ {
		indent += "  "
	}
	if printed[rid] {
		fmt.Printf("%srecord %s (printed above: reached twice)\n", indent, rid)
		return
	}
	printed[rid] = true
	rec, err := trees.LoadRecordForInspection(rid)
	if err != nil {
		fatalf("record %s: %v", rid, err)
	}
	fmt.Printf("%srecord %s (%d bytes, parent %s)\n",
		indent, rid, noderep.EncodedSize(rec), rec.ParentRID)
	var dump func(n *noderep.Node, nd int)
	dump = func(n *noderep.Node, nd int) {
		pad := indent
		for i := 0; i < nd+1; i++ {
			pad += "  "
		}
		switch n.Kind {
		case noderep.KindAggregate:
			label, _ := d.Name(n.Label)
			role := "facade"
			if n.Scaffold {
				role = "scaffolding"
			}
			fmt.Printf("%saggregate %s (%s, %d children)\n", pad, label, role, len(n.Children))
			for _, c := range n.Children {
				dump(c, nd+1)
			}
		case noderep.KindLiteral:
			v, _ := n.StringValue()
			if len(v) > 32 {
				v = v[:32] + "..."
			}
			fmt.Printf("%sliteral %q (%d bytes)\n", pad, v, len(n.Payload))
		case noderep.KindProxy:
			fmt.Printf("%sproxy -> %s (count %d)\n", pad, n.Target, n.Count)
			dumpRecord(trees, d, n.Target, depth+1, printed)
		}
	}
	dump(rec.Root, 0)
}

func checkAll(store *docstore.Store) {
	fmt.Printf("\ninvariant check:\n")
	failed := false
	for _, info := range store.Documents() {
		if info.Mode != docstore.ModeTree {
			continue
		}
		tree, err := store.Tree(info.Name)
		if err != nil {
			fatalf("%v", err)
		}
		if err := tree.CheckInvariants(); err != nil {
			fmt.Printf("  %-20s FAIL: %v\n", info.Name, err)
			failed = true
			continue
		}
		n, err := tree.RecordCount()
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("  %-20s ok (%d records)\n", info.Name, n)
	}
	if failed {
		os.Exit(1)
	}
}

// dumpWAL prints every record in the write-ahead log: LSN, type, and
// the type-specific payload (operation kind, page, changed ranges),
// plus the checkpoint chain and, per record type, how many records and
// how many log bytes (frames included) it accounts for. Torn tails are
// reported, not fatal — this is the debugging view of a crashed store.
// The log is opened read-only and read with pread, so the dump is safe
// beside a live store: it neither maps nor truncates the file.
func dumpWAL(path string) {
	st, err := os.Stat(path)
	if err != nil {
		fatalf("no write-ahead log at %s: %v", path, err)
	}
	storage, err := wal.OpenFileStorageReadOnly(path)
	if err != nil {
		fatalf("%v", err)
	}
	defer storage.Close()

	var (
		records     int
		checkpoints []wal.LSN
		ops         int
		openKind    string
		openLSN     wal.LSN

		// Per-type totals. A record's size is the distance to the next
		// record's LSN, so each is booked when its successor (or the end
		// of the log) is seen.
		counts, sizes [16]int64
		last          wal.Record
	)
	book := func(next wal.LSN) {
		if last.LSN != 0 && int(last.Type) < len(counts) {
			counts[last.Type]++
			sizes[last.Type] += int64(next - last.LSN)
		}
	}
	pageSize, end, err := wal.Scan(storage, func(r wal.Record) error {
		records++
		book(r.LSN)
		last = r
		fmt.Printf("%10d  %-12s", r.LSN, wal.TypeName(r.Type))
		switch r.Type {
		case wal.RecBegin:
			fmt.Printf(" op=%d pre-pages=%d kind=%q", r.OpID, r.PreNumPages, r.Kind)
			ops++
			openKind, openLSN = r.Kind, r.LSN
		case wal.RecCommit, wal.RecAbort:
			fmt.Printf(" op=%d", r.OpID)
			openKind = ""
		case wal.RecUpdate:
			fmt.Printf(" page=%d ranges=%d bytes=%d", r.Page, len(r.Ranges), rangeBytes(r.Ranges))
		case wal.RecFirstUpdate:
			fmt.Printf(" page=%d before-image=%dB ranges=%d bytes=%d",
				r.Page, len(r.BeforeImage), len(r.Ranges), rangeBytes(r.Ranges))
		case wal.RecImage:
			fmt.Printf(" page=%d image=%dB", r.Page, len(r.Image))
		case wal.RecCheckpoint:
			fmt.Printf(" pages=%d", r.NumPages)
			checkpoints = append(checkpoints, r.LSN)
		case wal.RecShrink:
			fmt.Printf(" pages=%d", r.NumPages)
		case wal.RecShift:
			fmt.Printf(" page=%d off=%d delta=%+d tail=%d ranges=%d bytes=%d",
				r.Page, r.Shift.Off, r.Shift.Delta, r.Shift.Tail, len(r.Ranges), rangeBytes(r.Ranges))
		}
		fmt.Println()
		return nil
	})
	if err != nil {
		fatalf("%v", err)
	}
	book(end)
	var total int64 // the bytes of the records Scan read
	for _, n := range sizes {
		total += n
	}
	fmt.Printf("\nlog: %d bytes on disk, %d records, %d operations, end LSN %d (page size %d)\n",
		st.Size(), records, ops, end, pageSize)
	if valid := wal.HeaderSize + total; st.Size() > valid {
		rest := st.Size() - valid
		if allZero(storage, valid, rest) {
			fmt.Printf("tail: %d bytes preallocated, zero (a growth step of the log file no commit reached)\n", rest)
		} else {
			fmt.Printf("tail: %d bytes behind the last valid record, not zero (a torn write; recovery discards them)\n", rest)
		}
	}
	switch len(checkpoints) {
	case 0:
		fmt.Println("checkpoint chain: none (log truncates at each checkpoint; records above await the next one)")
	default:
		fmt.Printf("checkpoint chain: %d in log, last at LSN %d\n", len(checkpoints), checkpoints[len(checkpoints)-1])
	}
	fmt.Print("by type:")
	for t, n := range counts {
		if n > 0 {
			fmt.Printf("  %s %d records %d bytes (%.1f%%)", wal.TypeName(uint8(t)), n, sizes[t], 100*float64(sizes[t])/float64(total))
		}
	}
	fmt.Println()
	if openKind != "" {
		fmt.Printf("UNFINISHED operation %q (begin LSN %d): recovery will undo it on next open\n", openKind, openLSN)
	}
}

// allZero reports whether the n bytes of r from off on are all zero.
func allZero(r io.ReaderAt, off, n int64) bool {
	buf := make([]byte, 64<<10)
	for n > 0 {
		b := buf[:min(n, int64(len(buf)))]
		if _, err := r.ReadAt(b, off); err != nil {
			return false
		}
		if slices.ContainsFunc(b, func(c byte) bool { return c != 0 }) {
			return false
		}
		off += int64(len(b))
		n -= int64(len(b))
	}
	return true
}

func rangeBytes(ranges []wal.Range) int {
	n := 0
	for _, r := range ranges {
		n += len(r.Before)
	}
	return n
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "natix-inspect: "+format+"\n", args...)
	os.Exit(1)
}
