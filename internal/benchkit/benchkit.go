// Package benchkit is the experiment harness for the paper's evaluation
// (§4): it builds stores in the configurations of §4.2, replays the
// workloads of §4.3, and produces the series behind Figures 9–14.
//
// Metrics: the paper reports wall-clock milliseconds on 1999 hardware
// with a dedicated disk and no OS buffering. Here every buffer-manager
// page access is replayed through a simulated IBM DCAS-34330W
// (pagedev.SimDisk), and experiments report simulated milliseconds as
// the primary, shape-comparable metric, alongside physical I/O counts
// and Go wall time.
package benchkit

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"natix/internal/buffer"
	"natix/internal/core"
	"natix/internal/corpus"
	"natix/internal/dict"
	"natix/internal/docstore"
	"natix/internal/noderep"
	"natix/internal/pagedev"
	"natix/internal/pathindex"
	"natix/internal/records"
	"natix/internal/segment"
	"natix/internal/telemetry"
	"natix/internal/xmlkit"
)

// Mode selects the storage configuration of §4.2.
type Mode int

// Storage configurations.
const (
	// ModeNative is the 1:n "native XML" configuration: split matrix all
	// other, the algorithm controls clustering.
	ModeNative Mode = iota
	// ModeOneToOne is the 1:1 configuration: split matrix all zero, one
	// record per node (emulating POET/Excelon/LORE).
	ModeOneToOne
	// ModeFlat stores documents as byte streams in the BLOB manager (the
	// flat-files category of §1; not one of the paper's measured series,
	// included as an extension baseline).
	ModeFlat
)

// String returns the paper's name for the mode.
func (m Mode) String() string {
	switch m {
	case ModeNative:
		return "1:n"
	case ModeOneToOne:
		return "1:1"
	case ModeFlat:
		return "flat"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Order selects the insertion order of §4.3.
type Order int

// Insertion orders.
const (
	// OrderAppend inserts in pre-order: "a 'bulkload' of or consecutive
	// appends to a textual representation".
	OrderAppend Order = iota
	// OrderIncremental inserts in BFS order over the binary-tree
	// representation: "an incremental update pattern where inserts occur
	// distributed over the whole document".
	OrderIncremental
)

// String returns the paper's name for the order.
func (o Order) String() string {
	if o == OrderIncremental {
		return "incr"
	}
	return "append"
}

// Config describes one experimental cell.
type Config struct {
	PageSize    int
	BufferBytes int // paper: 2 MB
	Mode        Mode
	Order       Order
	Disk        pagedev.DiskModel // zero value: DCAS34330W

	// SplitTarget and SplitTolerance default to the paper's settings
	// (1/2 and a tenth of a page) when zero.
	SplitTarget    float64
	SplitTolerance int

	// CacheRecords sizes the parsed-record cache (CPU-side only; I/O
	// accounting is unaffected). 0 means a sensible default; negative
	// disables the cache.
	CacheRecords int

	// PathIndex builds a path index for every loaded document (after
	// the measured insertion), so queries run through the indexed
	// evaluator instead of the navigating scan.
	PathIndex bool
}

func (c Config) withDefaults() Config {
	if c.BufferBytes == 0 {
		c.BufferBytes = 2 << 20
	}
	if c.Disk == (pagedev.DiskModel{}) {
		c.Disk = pagedev.DCAS34330W
	}
	if c.CacheRecords == 0 {
		c.CacheRecords = 4096
	}
	return c
}

// Metrics captures one measured operation.
type Metrics struct {
	Op       string
	Series   string
	PageSize int

	SimMS        float64 // simulated disk time, the paper-comparable metric
	WallMS       float64 // Go wall time (informational)
	LogicalReads int64   // buffer-manager page accesses (hits included)
	PhysReads    int64
	PhysWrites   int64
	SpaceBytes   int64 // segment size on disk (space figure)
	Work         int64 // op-dependent checksum: nodes visited, matches, …

	// Engine is the engine-metrics delta of the measured region: every
	// counter that moved, by name (buffer.*, core.*, docstore.*) —
	// splits, cache hits, evictions and the like, next to the headline
	// I/O numbers above.
	Engine map[string]int64
}

// Series returns the paper's series label for a config.
func (c Config) Series() string {
	if c.Mode == ModeFlat {
		return "flat"
	}
	return fmt.Sprintf("%s %s", c.Mode, c.Order)
}

// Env is a built store holding the corpus in one configuration.
type Env struct {
	cfg   Config
	sim   *pagedev.SimDisk
	pool  *buffer.Pool
	store *docstore.Store
	docs  []string
	spec  corpus.Spec

	reg  *telemetry.Registry
	base telemetry.Snapshot // registry state at the last resetMeasurement

	insertion Metrics
}

// BuildEnv creates a store, loads the corpus in the configured mode and
// order, and records the insertion metrics (Figure 9).
func BuildEnv(spec corpus.Spec, cfg Config) (*Env, error) {
	cfg = cfg.withDefaults()
	mem, err := pagedev.NewMem(cfg.PageSize)
	if err != nil {
		return nil, err
	}
	sim := pagedev.NewSimDisk(mem, cfg.Disk)
	pool, err := buffer.NewSized(sim, cfg.BufferBytes)
	if err != nil {
		return nil, err
	}
	seg, err := segment.Create(pool)
	if err != nil {
		return nil, err
	}
	rm := records.New(seg)
	d, err := dict.Create(rm)
	if err != nil {
		return nil, err
	}
	var matrix *core.SplitMatrix
	if cfg.Mode == ModeOneToOne {
		matrix = core.AllStandalone()
	} else {
		matrix = core.AllOther()
	}
	cache := cfg.CacheRecords
	if cache < 0 {
		cache = 0 // disabled
	}
	trees := core.New(rm, core.Config{
		SplitTarget:    cfg.SplitTarget,
		SplitTolerance: cfg.SplitTolerance,
		Matrix:         matrix,
		CacheRecords:   cache,
	})
	store, err := docstore.Create(trees, d)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	pool.AttachTelemetry(reg)
	trees.AttachTelemetry(reg)
	store.AttachTelemetry(reg, nil)
	env := &Env{cfg: cfg, sim: sim, pool: pool, store: store, spec: spec, reg: reg}

	// Measured insertion: clear buffer, load everything, flush.
	env.resetMeasurement()
	start := time.Now()
	var inserted int64
	for i := 0; i < spec.Plays; i++ {
		play := corpus.GeneratePlay(spec, i)
		name := fmt.Sprintf("play-%02d", i)
		n, err := env.loadDocument(name, play)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", name, err)
		}
		inserted += n
		env.docs = append(env.docs, name)
	}
	if err := pool.FlushAll(); err != nil {
		return nil, err
	}
	env.insertion = env.capture("insert", start, inserted)

	// Index after the measured insertion so Figure 9 stays comparable;
	// loadDocument builds trees through the storage manager directly, so
	// the import-time auto-build never fires and an explicit reindex is
	// needed.
	if cfg.PathIndex && cfg.Mode != ModeFlat {
		px, err := pathindex.Open(rm)
		if err != nil {
			return nil, err
		}
		store.EnablePathIndex(px)
		for _, name := range env.docs {
			if err := store.ReindexDocument(name); err != nil {
				return nil, fmt.Errorf("indexing %s: %w", name, err)
			}
		}
		if err := pool.FlushAll(); err != nil {
			return nil, err
		}
	}
	return env, nil
}

// loadDocument stores one play per the env's mode and order, returning
// the number of logical nodes inserted.
func (e *Env) loadDocument(name string, play *xmlkit.Node) (int64, error) {
	if e.cfg.Mode == ModeFlat {
		text := xmlkit.SerializeString(play)
		_, err := e.store.ImportFlat(name, strings.NewReader(text))
		return int64(play.CountNodes()), err
	}
	label, err := e.store.Dict().Intern(play.Name)
	if err != nil {
		return 0, err
	}
	tree, err := e.store.Trees().CreateTree(label)
	if err != nil {
		return 0, err
	}
	var ops []corpus.InsertOp
	if e.cfg.Order == OrderIncremental {
		ops = corpus.BinaryBFSOps(play)
	} else {
		ops = corpus.PreOrderOps(play)
	}
	for i, op := range ops {
		var n *noderep.Node
		if op.IsText {
			n = noderep.NewTextLiteral(op.Text)
		} else {
			l, err := e.store.Dict().Intern(op.Name)
			if err != nil {
				return 0, err
			}
			n = noderep.NewAggregate(l)
		}
		if err := tree.InsertChild(core.Path(op.ParentPath), op.Index, n); err != nil {
			return 0, fmt.Errorf("op %d (%+v): %w", i, op, err)
		}
	}
	if _, err := e.store.RegisterTree(name, tree); err != nil {
		return 0, err
	}
	return int64(len(ops) + 1), nil
}

// resetMeasurement clears the buffer and all counters: "The buffer was
// cleared at the start of each operation" (§4.2). The decoded caches
// (parsed records, path indexes) are dropped too, so every measured
// operation pays its full I/O, index loads included.
func (e *Env) resetMeasurement() {
	if err := e.pool.Clear(); err != nil {
		// Clearing only fails when frames are pinned, which would be a
		// harness bug: surface loudly.
		panic(fmt.Sprintf("benchkit: buffer clear: %v", err))
	}
	e.store.Trees().InvalidateCache()
	if px := e.store.PathIndex(); px != nil {
		px.InvalidateCache()
	}
	e.pool.ResetStats()
	e.sim.ResetStats()
	e.base = e.reg.Snapshot()
}

// capture snapshots the metrics of the operation started at start.
func (e *Env) capture(op string, start time.Time, work int64) Metrics {
	sim := e.sim.Stats()
	pool := e.pool.Stats()
	engine := e.reg.Snapshot().DeltaCounters(e.base)
	// Every cell records the pool configuration it ran under, so a
	// BENCH_*.json row is interpretable without the invocation that
	// produced it.
	engine["config.page_size"] = int64(e.cfg.PageSize)
	engine["config.buffer_bytes"] = int64(e.cfg.BufferBytes)
	return Metrics{
		Op:           op,
		Series:       e.cfg.Series(),
		PageSize:     e.cfg.PageSize,
		SimMS:        float64(sim.Elapsed) / float64(time.Millisecond),
		WallMS:       float64(time.Since(start)) / float64(time.Millisecond),
		LogicalReads: pool.LogicalReads,
		PhysReads:    pool.PhysReads,
		PhysWrites:   pool.PhysWrites,
		SpaceBytes:   e.store.Trees().Records().Segment().TotalBytes(),
		Work:         work,
		Engine:       engine,
	}
}

// Insertion returns the metrics recorded while building the env
// (Figure 9).
func (e *Env) Insertion() Metrics { return e.insertion }

// Traverse performs a full pre-order traversal of every document
// (Figure 10), returning the metrics and visiting every logical node.
func (e *Env) Traverse() (Metrics, error) {
	e.resetMeasurement()
	start := time.Now()
	var visited int64
	for _, name := range e.docs {
		if e.cfg.Mode == ModeFlat {
			// Structure access on flat storage requires parsing (§1).
			res, err := e.store.Query(name, "/"+corpus.ElemPlay)
			if err != nil {
				return Metrics{}, err
			}
			for _, r := range res {
				visited += int64(r.XML.CountNodes())
			}
			continue
		}
		tree, err := e.store.Tree(name)
		if err != nil {
			return Metrics{}, err
		}
		c, err := tree.Cursor()
		if err != nil {
			return Metrics{}, err
		}
		err = c.WalkPreOrder(func(c *core.Cursor) bool {
			visited++
			return true
		})
		if err != nil {
			return Metrics{}, err
		}
	}
	if err := e.pool.FlushAll(); err != nil {
		return Metrics{}, err
	}
	return e.capture("traverse", start, visited), nil
}

// Paper queries (§4.3).
const (
	// Query1 accesses all leaf nodes of a certain type in one selected
	// subtree: "all speakers in the third act and second scene of every
	// play".
	Query1 = "/PLAY/ACT[3]/SCENE[2]//SPEAKER"
	// Query2 recreates the textual representation of small contiguous
	// fragments: "the complete first speech in every scene".
	Query2 = "//SCENE/SPEECH[1]"
	// Query3 follows a single path per document: "the opening speech of
	// each play".
	Query3 = "/PLAY/ACT[1]/SCENE[1]/SPEECH[1]"
)

// RunQuery evaluates a path query over every document, consuming each
// match (serializing it when markup is true, as query 2 requires).
func (e *Env) RunQuery(op, query string, markup bool) (Metrics, error) {
	e.resetMeasurement()
	start := time.Now()
	var work int64
	for _, name := range e.docs {
		res, err := e.store.Query(name, query)
		if err != nil {
			return Metrics{}, err
		}
		for _, r := range res {
			if markup {
				m, err := r.Markup()
				if err != nil {
					return Metrics{}, err
				}
				work += int64(len(m))
			} else {
				txt, err := r.Text()
				if err != nil {
					return Metrics{}, err
				}
				work += int64(len(txt))
			}
		}
	}
	if err := e.pool.FlushAll(); err != nil {
		return Metrics{}, err
	}
	return e.capture(op, start, work), nil
}

// RunQueryFirstMatch evaluates a path query over every document
// through a lazy cursor, consuming at most limit matches per document
// (limit <= 0 consumes all) — the first-match / top-k access pattern
// the cursor API exists for. Early termination shows as fewer logical
// page reads (Metrics.LogicalReads) than RunQuery spends materializing
// the same query, on the scan path (the tree walk stops) and on the
// indexed path (unconsumed postings are never resolved to records).
func (e *Env) RunQueryFirstMatch(op, query string, limit int) (Metrics, error) {
	steps, err := docstore.ParseQuery(query)
	if err != nil {
		return Metrics{}, err
	}
	e.resetMeasurement()
	start := time.Now()
	var work int64
	for _, name := range e.docs {
		it, err := e.store.QueryIter(context.Background(), name, steps, docstore.IterOptions{Limit: limit})
		if err != nil {
			return Metrics{}, err
		}
		for it.Next() {
			txt, err := it.Result().Text()
			if err != nil {
				it.Close()
				return Metrics{}, err
			}
			work += int64(len(txt))
		}
		if err := it.Close(); err != nil {
			return Metrics{}, err
		}
	}
	if err := e.pool.FlushAll(); err != nil {
		return Metrics{}, err
	}
	return e.capture(op, start, work), nil
}

// RunQueryParallel evaluates a path query over every document like
// RunQuery, but fans the documents across workers goroutines — the
// multi-user read workload the concurrent read path exists for. Work
// and I/O counters aggregate across workers; WallMS is where the
// parallel speedup shows (SimMS still charges every device access to
// one simulated disk, so it is unaffected by concurrency). With
// workers == 1 the measurement degenerates to RunQuery's.
func (e *Env) RunQueryParallel(op, query string, markup bool, workers int) (Metrics, error) {
	if workers < 1 {
		workers = 1
	}
	e.resetMeasurement()
	start := time.Now()
	var work atomic.Int64
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(e.docs); i += workers {
				res, err := e.store.Query(e.docs[i], query)
				if err != nil {
					errc <- err
					return
				}
				for _, r := range res {
					if markup {
						m, err := r.Markup()
						if err != nil {
							errc <- err
							return
						}
						work.Add(int64(len(m)))
					} else {
						txt, err := r.Text()
						if err != nil {
							errc <- err
							return
						}
						work.Add(int64(len(txt)))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		return Metrics{}, err
	}
	if err := e.pool.FlushAll(); err != nil {
		return Metrics{}, err
	}
	return e.capture(op, start, work.Load()), nil
}

// Space reports the on-disk size of the store (Figure 14).
func (e *Env) Space() Metrics {
	return Metrics{
		Op:         "space",
		Series:     e.cfg.Series(),
		PageSize:   e.cfg.PageSize,
		SpaceBytes: e.store.Trees().Records().Segment().TotalBytes(),
	}
}

// Store exposes the underlying document store (for extensions/tests).
func (e *Env) Store() *docstore.Store { return e.store }

// Docs lists the loaded document names.
func (e *Env) Docs() []string { return e.docs }
