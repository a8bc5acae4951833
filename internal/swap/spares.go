package swap

import "sync"

// spareFrames bounds what the free list keeps between sessions: 4096 frames,
// 16 MiB of page buffers, the bound cache's slot list keeps too.
const spareFrames = 4096

// frameCache is the process's free list of page frames. Every session's swap
// pool makes its frames as it first fills them, and a process that opens one
// session after another — the planner's candidates, the harness cells —
// would make them all again for each. Release hands a pool's frames to the
// list and takeFrame takes from it before it makes one. A frame's buffer is
// cleared when the list hands it out, so a recycled frame is
// indistinguishable from a fresh one and runs stay replay-identical. Like
// cache's slot list it is shared by every session of the process, so it is
// lock-guarded.
var frameCache frameList

type frameList struct {
	mu    sync.Mutex
	spare []*page
}

// take returns a cleared frame with a whole page of buffer: a spare one, or
// a new one when the list is empty.
func (l *frameList) take() *page {
	l.mu.Lock()
	n := len(l.spare)
	if n == 0 {
		l.mu.Unlock()
		return &page{data: make([]byte, PageBytes)}
	}
	p := l.spare[n-1]
	l.spare[n-1] = nil
	l.spare = l.spare[:n-1]
	l.mu.Unlock()
	data := p.data[:PageBytes]
	clear(data)
	*p = page{data: data}
	return p
}

// put keeps as many of frames as fit under the list's bound.
func (l *frameList) put(frames []*page) {
	l.mu.Lock()
	defer l.mu.Unlock()
	room := min(spareFrames-len(l.spare), len(frames))
	l.spare = append(l.spare, frames[:room]...)
}

// Release hands the pool's frames to the free list the next swap pool of the
// process takes from. The cache holds no page afterwards: it must not be
// used again, and a dirty page still resident is dropped unwritten — release
// a pool only once its data is safe or no longer wanted, as a closed
// session's is. A second Release does nothing.
func (c *Cache) Release() {
	frameCache.put(c.frames)
	c.frames, c.free = nil, nil
}
