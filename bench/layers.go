package main

// Per-layer metrics, reported by the traced run (--trace 1). Three
// sources, named in the README next to each metric:
//
//	R  the engine's own counters (DB.Metrics deltas) over the traced,
//	   single-client prefix of the workload, divided by what the harness
//	   counted in the same window;
//	H  the harness spans of that prefix;
//	P  layer probes: the workload's own store file reopened through the
//	   layers' public constructors, each layer's functions timed on that
//	   data (probes.go), and the deterministic simulated-disk leg.
//
// Every metric is reported on every workload; one whose numerator or
// denominator the workload never touches reads 0.
var perLayer = []metricDef{
	{Name: "xmlkit.parse_ns_per_kb", Unit: "ns/KB", Better: "lower"},
	{Name: "docstore.import_parse_share", Unit: "ratio", Better: "lower"},
	{Name: "docstore.import_pack_share", Unit: "ratio", Better: "lower"},
	{Name: "docstore.import_write_share", Unit: "ratio", Better: "lower"},
	{Name: "docstore.q1_p50_us", Unit: "us", Better: "lower"},
	{Name: "docstore.q3_p50_us", Unit: "us", Better: "lower"},
	{Name: "docstore.persona_p50_us", Unit: "us", Better: "lower"},
	{Name: "docstore.first10_p50_us", Unit: "us", Better: "lower"},
	{Name: "docstore.count_p50_us", Unit: "us", Better: "lower"},
	{Name: "docstore.q2_p50_us", Unit: "us", Better: "lower"},
	{Name: "docstore.speakers_p50_us", Unit: "us", Better: "lower"},
	{Name: "docstore.lines_p50_us", Unit: "us", Better: "lower"},
	{Name: "docstore.wild_p50_us", Unit: "us", Better: "lower"},
	{Name: "docstore.export_p50_us", Unit: "us", Better: "lower"},
	{Name: "docstore.logical_reads_per_match", Unit: "count", Better: "lower"},
	{Name: "docstore.queries_indexed_share", Unit: "ratio", Better: "higher"},
	{Name: "docstore.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "pathindex.postings_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "pathindex.bytes_per_user_byte", Unit: "B/B", Better: "lower"},
	{Name: "core.walk_ns_per_node", Unit: "ns", Better: "lower"},
	{Name: "core.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.nodes_per_record", Unit: "count", Better: "higher"},
	{Name: "core.insert_us", Unit: "us", Better: "lower"},
	{Name: "core.splits_per_kop", Unit: "count", Better: "lower"},
	{Name: "core.records_rewritten_per_op", Unit: "count", Better: "lower"},
	{Name: "core.parent_patches_per_op", Unit: "count", Better: "lower"},
	{Name: "noderep.decode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "noderep.encode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "noderep.bytes_per_node", Unit: "B", Better: "lower"},
	{Name: "records.read_ns", Unit: "ns", Better: "lower"},
	{Name: "records.update_us", Unit: "us", Better: "lower"},
	{Name: "records.batch_insert_ns", Unit: "ns", Better: "lower"},
	{Name: "records.page_fill", Unit: "ratio", Better: "higher"},
	{Name: "segment.findspace_ns", Unit: "ns", Better: "lower"},
	{Name: "buffer.hit_ns", Unit: "ns", Better: "lower"},
	{Name: "buffer.miss_us", Unit: "us", Better: "lower"},
	{Name: "buffer.miss_self_us", Unit: "us", Better: "lower"},
	{Name: "buffer.parallel_miss_scaling", Unit: "ratio", Better: "higher"},
	{Name: "buffer.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "buffer.phys_reads_per_query", Unit: "count", Better: "lower"},
	{Name: "buffer.evictions_per_kread", Unit: "count", Better: "lower"},
	{Name: "buffer.prefetch_used_ratio", Unit: "ratio", Better: "higher"},
	{Name: "buffer.latch_waits", Unit: "count", Better: "lower"},
	{Name: "buffer.flush_ms_per_mb", Unit: "ms/MB", Better: "lower"},
	{Name: "buffer.phys_writes_per_mb", Unit: "count", Better: "lower"},
	{Name: "buffer.coalesced_runs_per_checkpoint", Unit: "count", Better: "higher"},
	{Name: "compress.compress_us_per_page", Unit: "us", Better: "lower"},
	{Name: "compress.decompress_us_per_page", Unit: "us", Better: "lower"},
	{Name: "compress.ratio", Unit: "ratio", Better: "lower"},
	{Name: "wal.checkpoints", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_user_byte", Unit: "B/B", Better: "lower"},
	{Name: "wal.fsync_share", Unit: "ratio", Better: "lower"},
	{Name: "wal.syncs_per_doc", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_edit", Unit: "B", Better: "lower"},
	{Name: "wal.appends_per_edit", Unit: "count", Better: "lower"},
	{Name: "wal.append_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "wal.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.recover_pages", Unit: "count", Better: "lower"},
	{Name: "pagedev.read_us_per_page", Unit: "us", Better: "lower"},
	{Name: "pagedev.write_us_per_page", Unit: "us", Better: "lower"},
	{Name: "pagedev.readrange_us_per_page", Unit: "us", Better: "lower"},
	{Name: "pagedev.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "pagedev.sim_ms_per_pass", Unit: "ms", Better: "lower"},
	{Name: "pagedev.sim_ms_per_mb_loaded", Unit: "ms/MB", Better: "lower"},
	{Name: "natix.open_ms", Unit: "ms", Better: "lower"},
	{Name: "natix.close_ms", Unit: "ms", Better: "lower"},
	{Name: "natix.alloc_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "natix.allocs_per_edit", Unit: "count", Better: "lower"},
	{Name: "natix.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "natix.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "natix.accounted_share", Unit: "ratio", Better: "higher"},
	// Candidates the issue listed end to end that the contract's "every
	// workload reports every end-to-end metric, none ever 0" rule, or
	// their own spread, keeps out of the gated set.
	{Name: "natix.write_amp", Unit: "B/B", Better: "lower"},
	{Name: "natix.load_batch_mb_per_s", Unit: "MB/s", Better: "higher"},
}

// counted derives the R metrics from the traced window.
func counted(rec *recorder, pl map[string]float64) {
	c := func(name string) float64 { return float64(rec.win.Counters[name]) }
	h := func(name string) float64 { return float64(rec.win.HistSums[name]) }
	wall := float64(rec.win.Wall.Nanoseconds())
	writeOps := float64(rec.edits + rec.docs)
	written := float64(rec.written)

	pl["docstore.import_parse_share"] = ratio(c("docstore.import_parse_ns"), wall)
	pl["docstore.import_pack_share"] = ratio(c("docstore.import_pack_ns"), wall)
	pl["docstore.import_write_share"] = ratio(c("docstore.import_write_ns"), wall)
	pl["docstore.logical_reads_per_match"] = ratio(c("buffer.logical_reads"), float64(rec.matches))
	pl["docstore.queries_indexed_share"] = ratio(c("docstore.queries_indexed"), c("docstore.queries_indexed")+c("docstore.queries_scan"))
	pl["docstore.checkpoint_ms"] = h("docstore.checkpoint_ns") / 1e6
	pl["core.cache_hit_ratio"] = ratio(c("core.cache_hits"), c("core.cache_hits")+c("core.cache_misses"))
	pl["core.splits_per_kop"] = ratio(1000*c("core.splits"), writeOps)
	pl["core.records_rewritten_per_op"] = ratio(c("core.records_rewritten"), writeOps)
	pl["core.parent_patches_per_op"] = ratio(c("core.parent_patches"), writeOps)
	pl["buffer.hit_ratio"] = ratio(c("buffer.hits"), c("buffer.logical_reads"))
	pl["buffer.phys_reads_per_query"] = ratio(c("buffer.phys_reads"), float64(rec.queries))
	pl["buffer.evictions_per_kread"] = ratio(1000*c("buffer.evictions"), c("buffer.logical_reads"))
	pl["buffer.prefetch_used_ratio"] = ratio(c("buffer.prefetch_used"), c("buffer.prefetch_issued"))
	pl["buffer.latch_waits"] = c("buffer.latch_waits")
	pl["buffer.phys_writes_per_mb"] = ratio(c("buffer.phys_writes"), written/1e6)
	pl["buffer.coalesced_runs_per_checkpoint"] = ratio(c("buffer.coalesced_write_runs"), c("wal.checkpoints"))
	pl["wal.checkpoints"] = c("wal.checkpoints")
	pl["wal.bytes_per_user_byte"] = ratio(c("wal.bytes"), written)
	pl["wal.fsync_share"] = ratio(h("wal.fsync_ns"), wall)
	pl["wal.syncs_per_doc"] = ratio(c("wal.syncs"), float64(rec.docs))
	pl["wal.bytes_per_edit"] = ratio(c("wal.bytes"), float64(rec.edits))
	pl["wal.appends_per_edit"] = ratio(c("wal.appends"), float64(rec.edits))
	pl["natix.write_amp"] = ratio(c("buffer.phys_writes")*pageSize+c("wal.bytes"), written)
	for _, cl := range classes {
		pl["docstore."+cl.Name+"_p50_us"] = rec.p50(cl.Name)
	}
}

// accounted reconciles the traced window against the probes: the sum
// over the layers of (how often the engine says it did something) times
// (what the probes say one of those costs), as a share of the window's
// wall time. The formula is fixed here so that the share is comparable
// between commits; it is a plausibility check on counters and probes,
// not a profile.
func accounted(rec *recorder, pl map[string]float64) float64 {
	c := func(name string) float64 { return float64(rec.win.Counters[name]) }
	ns := c("buffer.hits")*pl["buffer.hit_ns"] +
		c("buffer.phys_reads")*pl["buffer.miss_us"]*1e3 +
		c("buffer.phys_writes")*pl["pagedev.write_us_per_page"]*1e3 +
		c("core.cache_misses")*(pl["records.read_ns"]+pl["noderep.decode_ns_per_record"]) +
		c("core.records_rewritten")*(pl["records.update_us"]*1e3+pl["noderep.encode_ns_per_record"]) +
		c("core.records_created")*(pl["records.batch_insert_ns"]+pl["noderep.encode_ns_per_record"]) +
		c("wal.appends")*pl["wal.append_ns_per_record"] +
		float64(rec.win.HistSums["wal.fsync_ns"]) +
		float64(rec.written)/1024*pl["xmlkit.parse_ns_per_kb"]
	return ratio(ns, float64(rec.win.Wall.Nanoseconds()))
}
