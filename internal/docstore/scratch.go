package docstore

// Load scratch. A bulk import works in a handful of big, short-lived
// buffers — slabs the loader carves nodes and literal payloads from,
// the batches parse events cross the pipeline in, the path-index
// builder's element table, the buffer index blobs are encoded in. None
// of it outlives the import (emitted records keep only the builder's
// own proxy nodes, the finished index its own lists), so the store
// owns it: an import takes a loadScratch, each shard of a batch import
// its own, and hands it back when it finishes, aborts or is rolled
// back. What comes back is trimmed to fixed per-part caps and cleared,
// so a parked scratch is bounded in size and references nothing.

import (
	"unsafe"

	"natix/internal/noderep"
	"natix/internal/pathindex"
	"natix/internal/xmlkit"
)

const (
	nodeSlabLen = 1024     // nodes per slab
	textSlabLen = 64 << 10 // payload bytes per slab

	nodeSlabBytes   = nodeSlabLen * int(unsafe.Sizeof(noderep.Node{}))
	eventBatchBytes = eventBatchLen * int(unsafe.Sizeof(xmlkit.Event{}))

	// maxEventBatches is how many event batches one import's pipeline
	// can have in existence: the queue, one being filled, one being
	// applied.
	maxEventBatches = eventQueueLen + 2

	// What a parked scratch may keep. A ~230 KB play needs about nine
	// node slabs, three text slabs, six event batches, a 0.4 MB element
	// table and a 0.1 MB encode buffer; anything a bigger document grew
	// beyond these goes back to the GC.
	maxNodeSlabs   = 16
	maxTextSlabs   = 8
	maxIndexBytes  = 1 << 20
	maxEncodeBytes = 512 << 10

	// maxParkedScratch is how many scratches the store keeps between
	// imports; a batch import with more shards than this in flight
	// allocates the rest afresh.
	maxParkedScratch = 4

	// MaxRetainedScratch bounds the memory the store holds in parked
	// load scratch (about 15 MB; one parked scratch, the common case,
	// is under 4 MB).
	MaxRetainedScratch = maxParkedScratch * (maxNodeSlabs*nodeSlabBytes + maxTextSlabs*textSlabLen +
		maxEventBatches*eventBatchBytes + maxIndexBytes + maxEncodeBytes)
)

// loadScratch is the reusable memory of one bulk import. The slab lists
// hold every slab the import has used so far plus the idle ones behind
// them; nodeNext/textNext count the used ones.
type loadScratch struct {
	nodeSlabs [][]noderep.Node
	nodeNext  int
	textSlabs [][]byte
	textNext  int
	events    [][]xmlkit.Event // idle event batches
	index     pathindex.StreamScratch
	enc       []byte // index blob encode buffer
}

// nodeSlab returns an empty, zeroed node slab.
func (sc *loadScratch) nodeSlab() []noderep.Node {
	if sc.nodeNext == len(sc.nodeSlabs) {
		sc.nodeSlabs = append(sc.nodeSlabs, make([]noderep.Node, 0, nodeSlabLen))
	}
	sc.nodeNext++
	return sc.nodeSlabs[sc.nodeNext-1]
}

// textSlab returns an empty text slab.
func (sc *loadScratch) textSlab() []byte {
	if sc.textNext == len(sc.textSlabs) {
		sc.textSlabs = append(sc.textSlabs, make([]byte, 0, textSlabLen))
	}
	sc.textNext++
	return sc.textSlabs[sc.textNext-1]
}

// eventBatch returns an event batch, an idle one if there is any.
func (sc *loadScratch) eventBatch() []xmlkit.Event {
	if n := len(sc.events); n > 0 {
		b := sc.events[n-1]
		sc.events = sc.events[:n-1]
		return b
	}
	return make([]xmlkit.Event, eventBatchLen)
}

// reset readies the scratch for parking: parts over their cap are
// dropped, used node slabs are zeroed (a node references its children,
// its payload and its parent) and the index scratch emptied.
func (sc *loadScratch) reset() {
	if len(sc.nodeSlabs) > maxNodeSlabs {
		clear(sc.nodeSlabs[maxNodeSlabs:])
		sc.nodeSlabs = sc.nodeSlabs[:maxNodeSlabs]
	}
	for _, slab := range sc.nodeSlabs[:min(sc.nodeNext, len(sc.nodeSlabs))] {
		clear(slab[:nodeSlabLen])
	}
	sc.nodeNext = 0
	if len(sc.textSlabs) > maxTextSlabs {
		clear(sc.textSlabs[maxTextSlabs:])
		sc.textSlabs = sc.textSlabs[:maxTextSlabs]
	}
	sc.textNext = 0
	if len(sc.events) > maxEventBatches {
		clear(sc.events[maxEventBatches:])
		sc.events = sc.events[:maxEventBatches]
	}
	if sc.index.Bytes() > maxIndexBytes {
		sc.index = pathindex.StreamScratch{}
	}
	sc.index.Reset()
	if cap(sc.enc) > maxEncodeBytes {
		sc.enc = nil
	}
}

// bytes returns the memory a parked scratch holds.
func (sc *loadScratch) bytes() int {
	return len(sc.nodeSlabs)*nodeSlabBytes + len(sc.textSlabs)*textSlabLen +
		len(sc.events)*eventBatchBytes + sc.index.Bytes() + cap(sc.enc)
}

// takeScratch hands out a parked scratch, or a new one.
func (s *Store) takeScratch() *loadScratch {
	s.scratchMu.Lock()
	defer s.scratchMu.Unlock()
	if n := len(s.scratch); n > 0 {
		sc := s.scratch[n-1]
		s.scratch[n-1] = nil
		s.scratch = s.scratch[:n-1]
		return sc
	}
	return &loadScratch{}
}

// parkScratch takes a scratch back. Nothing may still use what was
// carved from it.
func (s *Store) parkScratch(sc *loadScratch) {
	sc.reset()
	s.scratchMu.Lock()
	defer s.scratchMu.Unlock()
	if len(s.scratch) < maxParkedScratch {
		s.scratch = append(s.scratch, sc)
	}
}

// RetainedScratch returns the bytes of load scratch parked in the store
// right now; never more than MaxRetainedScratch.
func (s *Store) RetainedScratch() int {
	s.scratchMu.Lock()
	defer s.scratchMu.Unlock()
	total := 0
	for _, sc := range s.scratch {
		total += sc.bytes()
	}
	return total
}
