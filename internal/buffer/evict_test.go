package buffer

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestEvictionNeverReportsPinnedWhenUnpinned: a reader that keeps
// re-referencing whatever is resident can set every reference bit again
// between the clock's two cycles. That used to end a concurrent miss in
// ErrPoolFull ("all frames pinned") with not one frame pinned. One
// goroutine misses its way through 20 000 distinct pages of an 8-frame
// pool while another re-reads the pages just behind it in a loop; no Get
// may fail and every page read must be its own. Run under -race.
func TestEvictionNeverReportsPinnedWhenUnpinned(t *testing.T) {
	const (
		frames = 8
		pages  = 20000
	)
	p, _ := newPool(t, 512, frames, pages)
	fillPages(t, p, pages)

	var (
		wg   sync.WaitGroup
		pos  atomic.Int64 // the page the missing goroutine is on
		done atomic.Bool
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for pn := 0; pn < pages; pn++ {
			pos.Store(int64(pn))
			if err := checkPage(p, pn); err != nil {
				t.Errorf("miss: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for !done.Load() {
			at := int(pos.Load())
			for pn := max(at-frames, 0); pn <= at; pn++ {
				if err := checkPage(p, pn); err != nil {
					t.Errorf("re-reference: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()
	if st := p.Stats(); st.Evictions < pages-frames {
		t.Fatalf("only %d evictions: the pool did not cycle", st.Evictions)
	}
}
