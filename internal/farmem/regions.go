package farmem

import (
	"slices"
	"sync"
)

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

// replyCache is the far side's free list of Gather reply buffers, kept on
// regionCache's terms: Release hands a node's reply to the list, and a node
// whose reply must grow takes the smallest one large enough. A process that
// opens one session after another would otherwise grow a reply afresh in
// every node, up to the longest doorbell chain its program posts. Every
// reply is overwritten up to the gather's length before it is returned, so
// a recycled buffer leaves runs replay-identical.
var replyCache = replyList{max: maxSpareReplies}

// maxSpareReplies bounds replyCache: a few sessions' worth, each reply at
// most the few tens of KiB one doorbell chain gathers.
const maxSpareReplies = 16

type replyList struct {
	mu    sync.Mutex
	max   int
	spare [][]byte
}

// take returns a buffer of at least n bytes, recycled when the list holds
// one, its contents unspecified.
func (l *replyList) take(n int) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	best := -1
	for i, b := range l.spare {
		if cap(b) >= n && (best < 0 || cap(b) < cap(l.spare[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]byte, n)
	}
	b := l.spare[best]
	l.spare = slices.Delete(l.spare, best, best+1)
	return b[:cap(b)]
}

// put keeps b for a later take; past the bound, the oldest spare goes.
func (l *replyList) put(b []byte) {
	if cap(b) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spare) == l.max {
		l.spare = slices.Delete(l.spare, 0, 1)
	}
	l.spare = append(l.spare, b)
}
