package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"natix"
	"natix/internal/buffer"
	"natix/internal/compress"
	"natix/internal/core"
	"natix/internal/corpus"
	"natix/internal/dict"
	"natix/internal/docstore"
	"natix/internal/noderep"
	"natix/internal/pagedev"
	"natix/internal/pathindex"
	"natix/internal/records"
	"natix/internal/segment"
	"natix/internal/wal"
	"natix/internal/xmlkit"
)

// Layer probes: after the traced prefix the workload's own store file is
// copied and reopened through the layers' public constructors, and each
// layer's public functions are timed on that data, one span per batch of
// calls. The probes give the unit costs (what one hit, one miss, one
// decode costs); the R counters say how many of each the workload did.

// probeBatch caps how many items a probe touches, to keep the traced
// run short; items are taken at a fixed stride over everything stored.
const probeBatch = 2048

// timedDevice is the timing wrapper between the file and the pool: it
// accumulates the time spent in device reads, so that a miss's own cost
// is its span minus the read below it.
type timedDevice struct {
	pagedev.Device
	readNs atomic.Int64
}

func (d *timedDevice) Read(p pagedev.PageNo, buf []byte) error {
	t := time.Now()
	err := d.Device.Read(p, buf)
	d.readNs.Add(time.Since(t).Nanoseconds())
	return err
}

func (d *timedDevice) ReadRange(p pagedev.PageNo, buf []byte) error {
	t := time.Now()
	err := pagedev.ReadRange(d.Device, p, buf)
	d.readNs.Add(time.Since(t).Nanoseconds())
	return err
}

func (d *timedDevice) WriteRange(p pagedev.PageNo, buf []byte) error {
	return pagedev.WriteRange(d.Device, p, buf)
}

// layerStack is a store file opened layer by layer, the way natix.Open
// assembles it, without a log.
type layerStack struct {
	file  *pagedev.File
	dev   *timedDevice
	pool  *buffer.Pool
	seg   *segment.Segment
	rm    *records.Manager
	trees *core.Store
	docs  *docstore.Store
	px    *pathindex.Store
}

func openStack(path string, poolBytes int) (*layerStack, error) {
	file, err := pagedev.OpenFile(path, pageSize)
	if err != nil {
		return nil, err
	}
	s := &layerStack{file: file, dev: &timedDevice{Device: file}}
	fail := func(err error) (*layerStack, error) {
		file.Close()
		return nil, err
	}
	if s.pool, err = buffer.NewSized(s.dev, poolBytes); err != nil {
		return fail(err)
	}
	if s.seg, err = segment.Open(s.pool); err != nil {
		return fail(err)
	}
	s.rm = records.New(s.seg)
	d, err := dict.Open(s.rm)
	if err != nil {
		return fail(err)
	}
	s.trees = core.New(s.rm, core.Config{CacheRecords: 4096})
	if s.docs, err = docstore.Open(s.trees, d); err != nil {
		return fail(err)
	}
	if s.px, err = pathindex.Open(s.rm); err != nil {
		return fail(err)
	}
	return s, nil
}

// treeRecords walks every document's record tree through its proxies
// and returns each record's RID and a copy of its body.
func (s *layerStack) treeRecords() ([]records.RID, [][]byte, error) {
	var rids []records.RID
	var bodies [][]byte
	for _, d := range s.docs.Documents() {
		if d.Mode != docstore.ModeTree {
			continue
		}
		todo := []records.RID{d.Root}
		for len(todo) > 0 {
			rid := todo[len(todo)-1]
			todo = todo[:len(todo)-1]
			body, err := s.rm.Read(rid)
			if err != nil {
				return nil, nil, err
			}
			rec, err := noderep.Decode(body)
			if err != nil {
				return nil, nil, err
			}
			rids, bodies = append(rids, rid), append(bodies, body)
			rec.Root.Walk(func(n *noderep.Node) bool {
				if n.Kind == noderep.KindProxy {
					todo = append(todo, n.Target)
				}
				return true
			})
		}
	}
	return rids, bodies, nil
}

// prober runs probe batches, records one span each, and keeps the first
// error; after an error the remaining batches are skipped.
type prober struct {
	rec *recorder
	pl  map[string]float64
	err error
}

// note keeps the first error.
func (p *prober) note(err error) {
	if p.err == nil {
		p.err = err
	}
}

// batch times fn over n items as one span and returns the nanoseconds
// per item and the span's id.
func (p *prober) batch(layer, op string, n int, fn func() error) (float64, int64) {
	if p.err != nil {
		return 0, 0
	}
	t := time.Now()
	err := fn()
	d := time.Since(t)
	if err != nil {
		p.err = fmt.Errorf("probe %s.%s: %w", layer, op, err)
		return 0, 0
	}
	id := p.rec.addSpan(0, layer, op, "", t, d, map[string]int64{"items": int64(n)})
	return ratio(float64(d.Nanoseconds()), float64(n)), id
}

// steady is batch for probes that change nothing: it runs the batch
// three times and returns the median cost per item.
func (p *prober) steady(layer, op string, n int, fn func() error) float64 {
	var ns []float64
	for i := 0; i < 3; i++ {
		one, _ := p.batch(layer, op, n, fn)
		ns = append(ns, one)
	}
	return median(ns)
}

// stride returns at most probeBatch indices spread evenly over [0, n).
func stride(n int) []int {
	step := max(1, (n+probeBatch-1)/probeBatch)
	var out []int
	for i := 0; i < n; i += step {
		out = append(out, i)
	}
	return out
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// probeStore runs the probes that need the workload's data. expect maps
// the store's documents to their corpus plays.
func (p *prober) probeStore(c *config, in *inputs, storePath string, expect map[string]int) {
	scratch := c.path("probe.natix")
	if p.note(copyFile(storePath, scratch)); p.err != nil {
		return
	}
	defer os.Remove(scratch)
	st, err := openStack(scratch, c.scale.ResidentBytes)
	if p.note(err); p.err != nil {
		return
	}
	defer st.file.Close()
	rng := in.rng("probe", 0)

	rids, bodies, err := st.treeRecords()
	p.note(err)
	var pages []pagedev.PageNo
	p.note(st.seg.ForEachDataPage(func(pn pagedev.PageNo) error {
		pages = append(pages, pn)
		return nil
	}))

	// noderep: decode and re-encode every stored record.
	recs := make([]*noderep.Record, len(bodies))
	p.pl["noderep.decode_ns_per_record"] = p.steady("noderep", "decode", len(bodies), func() error {
		for i, b := range bodies {
			if recs[i], err = noderep.Decode(b); err != nil {
				return err
			}
		}
		return nil
	})
	p.pl["noderep.encode_ns_per_record"] = p.steady("noderep", "encode", len(recs), func() error {
		for _, r := range recs {
			if _, err := noderep.Encode(r); err != nil {
				return err
			}
		}
		return nil
	})
	if p.err != nil {
		return
	}
	var nodes, bytes int
	for i, r := range recs {
		bytes += len(bodies[i])
		r.Root.Walk(func(n *noderep.Node) bool {
			if n.Kind == noderep.KindLiteral || (n.Kind == noderep.KindAggregate && !n.Scaffold) {
				nodes++
			}
			return true
		})
	}
	p.pl["noderep.bytes_per_node"] = ratio(float64(bytes), float64(nodes))
	p.pl["core.nodes_per_record"] = ratio(float64(nodes), float64(len(recs)))

	// records and buffer on resident pages (treeRecords loaded them).
	p.pl["records.read_ns"] = p.steady("records", "read", len(rids), func() error {
		for _, rid := range rids {
			if _, err := st.rm.Read(rid); err != nil {
				return err
			}
		}
		return nil
	})
	touch := func(pool *buffer.Pool, pns []pagedev.PageNo) error {
		for _, pn := range pns {
			f, err := pool.Get(pn)
			if err != nil {
				return err
			}
			f.Release()
		}
		return nil
	}
	p.note(touch(st.pool, pages))
	p.pl["buffer.hit_ns"] = p.steady("buffer", "hit", len(pages), func() error { return touch(st.pool, pages) })
	var free int
	for _, pn := range pages {
		n, err := st.rm.PageFreeBytes(pn)
		p.note(err)
		free += n
	}
	p.pl["records.page_fill"] = 1 - ratio(float64(free), float64(len(pages)*pageSize))

	// core: pre-order navigation over every document, record cache warm.
	walk := func() (int, error) {
		n := 0
		for _, d := range st.docs.Documents() {
			if d.Mode != docstore.ModeTree {
				continue
			}
			cur, err := st.trees.OpenTree(d.Root).Cursor()
			if err != nil {
				return n, err
			}
			if err := cur.WalkPreOrder(func(*core.Cursor) bool { n++; return true }); err != nil {
				return n, err
			}
		}
		return n, nil
	}
	walked, err := walk()
	p.note(err)
	p.pl["core.walk_ns_per_node"] = p.steady("core", "walk", walked, func() error { _, err := walk(); return err })

	// pathindex: decode summary and every posting list, cache dropped.
	names := st.px.Names()
	ns := p.steady("pathindex", "postings", len(names), func() error {
		st.px.InvalidateCache()
		for _, name := range names {
			h, err := st.px.Get(name)
			if err != nil {
				return err
			}
			for _, l := range h.PostingLabels() {
				if _, err := h.Postings(l); err != nil {
					return err
				}
			}
		}
		return nil
	})
	p.pl["pathindex.postings_us_per_doc"] = ns / 1e3
	var blob, indexed int64
	for _, name := range names {
		n, err := st.px.BlobSize(name)
		p.note(err)
		blob += n
		if play, ok := expect[name]; ok {
			indexed += int64(len(in.xml[play]))
		}
	}
	p.pl["pathindex.bytes_per_user_byte"] = ratio(float64(blob), float64(indexed))

	// compress and pagedev: the file's own page images.
	sample := stride(len(pages))
	images := make([][]byte, len(sample))
	for i, j := range sample {
		images[i] = make([]byte, pageSize)
		p.note(st.file.Read(pages[j], images[i]))
	}
	codec := compress.NewFlate(compress.DefaultLevel)
	packed := make([][]byte, len(images))
	ns, _ = p.batch("compress", "compress", len(images), func() error {
		for i, img := range images {
			if packed[i], err = codec.Compress(nil, img); err != nil {
				return err
			}
		}
		return nil
	})
	p.pl["compress.compress_us_per_page"] = ns / 1e3
	buf := make([]byte, pageSize)
	ns, _ = p.batch("compress", "decompress", len(packed), func() error {
		for _, enc := range packed {
			if err := codec.Decompress(buf, enc); err != nil {
				return err
			}
		}
		return nil
	})
	p.pl["compress.decompress_us_per_page"] = ns / 1e3
	var packedBytes int
	for _, enc := range packed {
		packedBytes += len(enc)
	}
	p.pl["compress.ratio"] = ratio(float64(packedBytes), float64(len(images)*pageSize))

	ns = p.steady("pagedev", "read", len(sample), func() error {
		for _, j := range rng.Perm(len(sample)) {
			if err := st.file.Read(pages[sample[j]], buf); err != nil {
				return err
			}
		}
		return nil
	})
	p.pl["pagedev.read_us_per_page"] = ns / 1e3
	const run = 16
	runs := int(st.file.NumPages()) / run
	big := make([]byte, run*pageSize)
	ns = p.steady("pagedev", "readrange", runs*run, func() error {
		for r := 0; r < runs; r++ {
			if err := pagedev.ReadRange(st.file, pagedev.PageNo(r*run), big); err != nil {
				return err
			}
		}
		return nil
	})
	p.pl["pagedev.readrange_us_per_page"] = ns / 1e3
	ns, _ = p.batch("pagedev", "write", len(sample), func() error {
		for i, j := range sample {
			if err := st.file.Write(pages[j], images[i]); err != nil {
				return err
			}
		}
		return nil
	})
	p.pl["pagedev.write_us_per_page"] = ns / 1e3
	ns, _ = p.batch("pagedev", "sync", 1, st.file.Sync)
	p.pl["pagedev.sync_ms"] = ns / 1e6

	// buffer misses: a cold pool of the paper's size, every page once, so
	// every Get misses (and evicts once the pool is full).
	order := make([]pagedev.PageNo, len(pages))
	for i, j := range rng.Perm(len(pages)) {
		order[i] = pages[j]
	}
	order = order[:len(order)&^1]
	cold := func() *buffer.Pool {
		pool, err := buffer.NewSized(st.dev, c.scale.SpillBytes)
		p.note(err)
		return pool
	}
	pool := cold()
	st.dev.readNs.Store(0)
	one, id := p.batch("buffer", "miss", len(order), func() error { return touch(pool, order) })
	if p.err == nil {
		// The device reads below the misses, summed into one child span
		// laid at the start of its parent.
		below := time.Duration(st.dev.readNs.Load())
		start := p.rec.origin.Add(time.Duration(p.rec.spans[id-1].StartNs))
		p.rec.addSpan(id, "pagedev", "read", "", start, below, nil)
		p.pl["buffer.miss_us"] = one / 1e3
		p.pl["buffer.miss_self_us"] = (one - ratio(float64(below.Nanoseconds()), float64(len(order)))) / 1e3
	}
	pool = cold()
	two, _ := p.batch("buffer", "miss_parallel", len(order), func() error {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for g, part := range [][]pagedev.PageNo{order[:len(order)/2], order[len(order)/2:]} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[g] = touch(pool, part)
			}()
		}
		wg.Wait()
		if errs[0] != nil {
			return errs[0]
		}
		return errs[1]
	})
	p.pl["buffer.parallel_miss_scaling"] = ratio(one, two)

	// The write side, unlogged, on the scratch copy.
	p.pl["segment.findspace_ns"], _ = p.batch("segment", "findspace", probeBatch, func() error {
		for i := 0; i < probeBatch; i++ {
			if _, err := st.seg.FindSpace(200, pages[rng.Intn(len(pages))]); err != nil {
				return err
			}
		}
		return nil
	})
	picks := stride(len(rids))
	ns, _ = p.batch("records", "update", len(picks), func() error {
		for _, j := range picks {
			if err := st.rm.Update(rids[j], bodies[j]); err != nil {
				return err
			}
		}
		return nil
	})
	p.pl["records.update_us"] = ns / 1e3
	copies := make([][]byte, len(picks))
	for i, j := range picks {
		copies[i] = append([]byte(nil), bodies[j]...)
	}
	p.pl["records.batch_insert_ns"], _ = p.batch("records", "batch_insert", len(copies), func() error {
		bw := st.rm.NewBatchWriter(0)
		for _, body := range copies {
			if _, err := bw.Insert(body); err != nil {
				bw.Discard()
				return err
			}
		}
		return bw.Flush()
	})
	w0 := st.pool.Stats().PhysWrites
	ns, _ = p.batch("buffer", "flush", 1, st.pool.FlushAll)
	p.pl["buffer.flush_ms_per_mb"] = ratio(ns/1e6, float64(st.pool.Stats().PhysWrites-w0)*pageSize/1e6)
}

// memTree creates an empty tree with the given root element in an
// unlogged in-memory store, and interns the corpus's element names.
func memTree(poolBytes int, root string) (*core.Tree, map[string]dict.LabelID, error) {
	mem, err := pagedev.NewMem(pageSize)
	if err != nil {
		return nil, nil, err
	}
	pool, err := buffer.NewSized(mem, poolBytes)
	if err != nil {
		return nil, nil, err
	}
	seg, err := segment.Create(pool)
	if err != nil {
		return nil, nil, err
	}
	rm := records.New(seg)
	d, err := dict.Create(rm)
	if err != nil {
		return nil, nil, err
	}
	labels := map[string]dict.LabelID{}
	for _, name := range corpus.ElementNames {
		if labels[name], err = d.Intern(name); err != nil {
			return nil, nil, err
		}
	}
	tree, err := core.New(rm, core.Config{CacheRecords: 4096}).CreateTree(labels[root])
	return tree, labels, err
}

// probeInputs runs the probes that need only the corpus.
func (p *prober) probeInputs(c *config, in *inputs) {
	// xmlkit: the streaming parser over the corpus text.
	events := make([]xmlkit.Event, 1024)
	ns := p.steady("xmlkit", "parse", int(in.xmlBytes/1024), func() error {
		for _, doc := range in.xml {
			sp := xmlkit.NewStreamParser(strings.NewReader(doc), xmlkit.ParseOptions{})
			for {
				if _, err := sp.ReadBatch(events); err == io.EOF {
					break
				} else if err != nil {
					return err
				}
			}
		}
		return nil
	})
	p.pl["xmlkit.parse_ns_per_kb"] = ns

	// core: the insert-and-split algorithm alone — one play in BFS order
	// into an unlogged in-memory store.
	tree, labels, err := memTree(c.scale.SpillBytes, in.plays[0].Name)
	if p.note(err); p.err != nil {
		return
	}
	ops := corpus.BinaryBFSOps(in.plays[0])
	ns, _ = p.batch("core", "insert", len(ops), func() error {
		for _, op := range ops {
			n := noderep.NewTextLiteral(op.Text)
			if !op.IsText {
				n = noderep.NewAggregate(labels[op.Name])
			}
			if err := tree.InsertChild(core.Path(op.ParentPath), op.Index, n); err != nil {
				return err
			}
		}
		return nil
	})
	p.pl["core.insert_us"] = ns / 1e3

	// wal: appending one small byte-range update, in memory, no sync.
	w, err := wal.OpenWriter(wal.NewMemStorage(), wal.Options{PageSize: pageSize, NoSync: true})
	if p.note(err); p.err != nil {
		return
	}
	before, after := make([]byte, 64), make([]byte, 64)
	const appends = 20000
	p.pl["wal.append_ns_per_record"], _ = p.batch("wal", "append", appends, func() error {
		if _, err := w.Begin("probe", 0); err != nil {
			return err
		}
		for i := 0; i < appends; i++ {
			if _, err := w.AppendUpdate(pagedev.PageNo(1+i%1024), []wal.Range{{Off: 128, Before: before, After: after}}); err != nil {
				return err
			}
		}
		return w.Commit()
	})
}

// probeRecovery opens a copy of the store and its log taken while the
// traced session was still open — what a crash at that moment would have
// left — and checks that recovery brings back every completed document.
func (p *prober) probeRecovery(crashPath string, opts storeOpts, in *inputs, expect map[string]int) {
	var db *natix.DB
	ns, _ := p.batch("wal", "recover", 1, func() (err error) {
		db, err = opts.open(crashPath, false)
		return err
	})
	if p.err != nil {
		return
	}
	defer db.Close()
	r, err := db.Recovery()
	if p.note(err); p.err != nil {
		return
	}
	p.pl["wal.recover_ms"] = ns / 1e6
	p.pl["wal.recover_pages"] = float64(r.PagesWritten)
	for name, play := range expect {
		p.rec.attempted++
		if msg := checkDocument(db, name, in.xml[play]); msg != "" {
			p.rec.fail(1, "after recovery: %s", msg)
		}
	}
}

// probeOpenClose times opening and closing the workload's closed store.
func (p *prober) probeOpenClose(storePath string, opts storeOpts) {
	var opens []float64
	for i := 0; i < 3; i++ {
		var db *natix.DB
		ns, _ := p.batch("natix", "open", 1, func() (err error) {
			db, err = opts.open(storePath, false)
			return err
		})
		if p.err != nil {
			return
		}
		opens = append(opens, ns/1e6)
		if p.err = db.Close(); p.err != nil {
			return
		}
	}
	p.pl["natix.open_ms"] = median(opens)
}

// simLeg loads the corpus into an in-memory store behind the simulated
// 1997 disk and runs one query pass, for the paper's unit. No clock is
// read: the numbers depend only on the order of page accesses.
func simLeg(c *config, in *inputs, pl map[string]float64) error {
	db, err := natix.Open(natix.Options{PageSize: pageSize, BufferBytes: c.scale.SpillBytes,
		PathIndex: true, WAL: true, SimulateDisk: true})
	if err != nil {
		return err
	}
	defer db.Close()
	if err := importDocs(db, in, len(in.names)); err != nil {
		return err
	}
	if err := db.Flush(); err != nil {
		return err
	}
	loaded, err := db.SimStats()
	if err != nil {
		return err
	}
	pl["pagedev.sim_ms_per_mb_loaded"] = ratio(float64(loaded.Elapsed.Nanoseconds())/1e6, float64(in.xmlBytes)/1e6)
	prep, err := prepare(db)
	if err != nil {
		return err
	}
	rec := newRecorder("sim", false)
	for _, pair := range in.rng("sim", 0).Perm(len(in.names) * len(classes)) {
		runQuery(db, prep, in, pair/len(classes), pair%len(classes), "", rec)
	}
	if rec.failed > 0 {
		return fmt.Errorf("sim leg: %s", rec.firstFailure)
	}
	passed, err := db.SimStats()
	if err != nil {
		return err
	}
	pl["pagedev.sim_ms_per_pass"] = float64((passed.Elapsed - loaded.Elapsed).Nanoseconds()) / 1e6
	return nil
}
