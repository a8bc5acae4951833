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
// list, addRegion takes one of exactly the size it needs and clears it —
// its bytes and its checksum table — so a recycled region is
// indistinguishable from a fresh one and runs stay replay-identical. It is
// shared by every Node of the process — the nodes are what comes and goes —
// and so the one lock-guarded piece of far-side state.
var regionCache = regionList{max: regionCacheBytes, bySize: map[int][]memRegion{}}

type regionList struct {
	max    int // the bound on held
	mu     sync.Mutex
	bySize map[int][]memRegion // exact len(data) -> released backing, base unset
	held   int                 // Σ len(data) over bySize, ≤ max; a table adds 1/512 of it
}

// take returns zeroed backing of exactly size bytes, recycled when the list
// holds one, with an empty checksum table if it had one.
func (l *regionList) take(size int) memRegion {
	l.mu.Lock()
	rs := l.bySize[size]
	if len(rs) == 0 {
		l.mu.Unlock()
		return memRegion{data: make([]byte, size)}
	}
	r := rs[len(rs)-1]
	rs[len(rs)-1] = memRegion{}
	l.bySize[size] = rs[:len(rs)-1]
	l.held -= size
	l.mu.Unlock()
	clear(r.data)
	clear(r.sums)
	return r
}

// put keeps r's backing for a later take of the same size. Backing that
// would take the list over its bound empties the list first: the sizes it
// holds are those of sessions gone by, and starting again keeps the ones in
// use now instead of the ones that filled it first.
func (l *regionList) put(r memRegion) {
	size := len(r.data)
	if size == 0 || size > l.max {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.held+size > l.max {
		clear(l.bySize)
		l.held = 0
	}
	r.base = 0
	l.bySize[size] = append(l.bySize[size], r)
	l.held += size
}
