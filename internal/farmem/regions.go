package farmem

import "sync"

// regionCacheBytes bounds the backing the free list keeps between
// sessions: a few dozen workload footprints at the sizes the harness and the
// benchmark run (1–2 MiB each), a small fraction of what one session holds
// live at the paper's sizes.
const regionCacheBytes = 64 << 20

// regionCache is the far side's free list of region backing. A far node
// allocates its memory once and then only serves out of it (§5.1); a process
// that opens one session after another (the planner's candidates, the
// harness cells, a serving fleet's tenants) would otherwise make and zero
// the whole far heap again for each. Release hands a node's regions to the
// list, addRegion takes one of exactly the size it needs and clears it, so
// a recycled region is indistinguishable from a fresh one and runs stay
// replay-identical. It is shared by every Node of the process — the nodes
// are what comes and goes — and so the one lock-guarded piece of far-side
// state.
var regionCache = regionList{max: regionCacheBytes, bySize: map[int][][]byte{}}

type regionList struct {
	max    int // the bound on held
	mu     sync.Mutex
	bySize map[int][][]byte // exact length -> released buffers
	held   int              // Σ len over bySize, ≤ max
}

// take returns a zeroed buffer of exactly size bytes, recycled when the
// list holds one.
func (l *regionList) take(size int) []byte {
	l.mu.Lock()
	bufs := l.bySize[size]
	if len(bufs) == 0 {
		l.mu.Unlock()
		return make([]byte, size)
	}
	buf := bufs[len(bufs)-1]
	bufs[len(bufs)-1] = nil
	l.bySize[size] = bufs[:len(bufs)-1]
	l.held -= size
	l.mu.Unlock()
	clear(buf)
	return buf
}

// put keeps buf for a later take of the same size. A buffer that would take
// the list over its bound empties the list first: the sizes it holds are
// those of sessions gone by, and starting again keeps the ones in use now
// instead of the ones that filled it first.
func (l *regionList) put(buf []byte) {
	if len(buf) == 0 || len(buf) > l.max {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.held+len(buf) > l.max {
		clear(l.bySize)
		l.held = 0
	}
	l.bySize[len(buf)] = append(l.bySize[len(buf)], buf)
	l.held += len(buf)
}
