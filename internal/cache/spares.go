package cache

import (
	"sync"
	"unsafe"
)

// spareSlotsBytes bounds what the free list keeps between sessions: the
// storage of a few dozen narrow-line sections at the sizes the planner
// samples plus 4,096 swap pages, a small fraction of one session's far heap.
const spareSlotsBytes = 36 << 20

// maxSpareSlots bounds the slot arrays take scans.
const maxSpareSlots = 64

// bufBytes is what the list counts for a loose line buffer besides its bytes.
const bufBytes = int(unsafe.Sizeof([]byte(nil)))

// slotCache is the process's free list of section storage. A section of
// narrow lines (one field span per element) holds many slots, a swap pool
// many 4 KiB pages, each with its own line buffer, and a process that opens
// one session after another — the planner's candidates, the harness cells —
// would make them all again for each. Release hands a section's slot array
// and its line buffers to the list; a new section of any structure takes the
// smallest array at least as long as it needs, and Spare takes a loose
// buffer of its line size whenever the section's own stock is empty, so a
// section takes only the buffers it fills, and sessions open side by side
// share what the list holds. Slots go back cleared and every buffer is
// cleared when Spare hands it out, so a recycled section is
// indistinguishable from a fresh one and runs stay replay-identical. Like
// farmem's region list it is shared by every session of the process, so it
// is lock-guarded.
var slotCache = slotList{max: spareSlotsBytes, bufs: map[int][][]byte{}}

type slotList struct {
	mu    sync.Mutex
	max   int // the bound on held
	held  int // Σ bytes over spare and bufs
	spare []spareSlots
	bufs  map[int][][]byte // loose line buffers by length
}

// spareSlots is one released section's slot array, cleared, and the empty
// slice its buffer stock grew.
type spareSlots struct {
	slots []Line
	stock [][]byte
}

func (s spareSlots) bytes() int {
	return cap(s.slots)*int(unsafe.Sizeof(Line{})) + cap(s.stock)*bufBytes
}

// take returns the smallest spare slot array at least n long, cut to n, with
// its stock slice; n new slots when none is long enough.
func (l *slotList) take(n int) spareSlots {
	l.mu.Lock()
	defer l.mu.Unlock()
	best := -1
	for i, s := range l.spare {
		if cap(s.slots) >= n && (best < 0 || cap(s.slots) < cap(l.spare[best].slots)) {
			best = i
		}
	}
	if best < 0 {
		return spareSlots{slots: make([]Line, n)}
	}
	s := l.spare[best]
	l.held -= s.bytes()
	l.spare[best] = l.spare[len(l.spare)-1]
	l.spare[len(l.spare)-1] = spareSlots{}
	l.spare = l.spare[:len(l.spare)-1]
	s.slots = s.slots[:n]
	return s
}

// buffer returns a loose line buffer lineBytes long, not cleared, or nil when
// the list holds none.
func (l *slotList) buffer(lineBytes int) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	free := l.bufs[lineBytes]
	if len(free) == 0 {
		return nil
	}
	buf := free[len(free)-1]
	free[len(free)-1] = nil
	l.bufs[lineBytes] = free[:len(free)-1]
	l.held -= lineBytes + bufBytes
	return buf
}

// put keeps a slot array and line buffers lineBytes long for later takes. An
// array that would take the list over its bound, or past its entry count,
// empties the arrays first: they are from sessions gone by. Buffers are kept
// as far as the bound has room.
func (l *slotList) put(s spareSlots, lineBytes int, bufs [][]byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if size := s.bytes(); size <= l.max {
		if l.held+size > l.max || len(l.spare) == maxSpareSlots {
			for _, o := range l.spare {
				l.held -= o.bytes()
			}
			clear(l.spare)
			l.spare = l.spare[:0]
		}
		l.spare = append(l.spare, s)
		l.held += size
	}
	keep := bufs[:min(len(bufs), max(l.max-l.held, 0)/(lineBytes+bufBytes))]
	l.bufs[lineBytes] = append(l.bufs[lineBytes], keep...)
	l.held += len(keep) * (lineBytes + bufBytes)
	clear(bufs) // the backing array of s.stock, kept for its capacity
}

// Release hands a section's slot array and line buffers to the free list the
// next sections of the process take from. The section holds nothing
// afterwards: it must not be used again, and a dirty line still resident is
// dropped unwritten — release a section only once its data is safe or no
// longer wanted, as a closed session's is. A second Release does nothing.
func Release(sec Section) {
	if s, ok := sec.(interface{ release() }); ok {
		s.release()
	}
}

// release hands the slots and every buffer they hold and the stock holds to
// the free list.
func (b *base) release() {
	if b.slots == nil {
		return
	}
	free := b.free
	for i := range b.slots {
		if d := b.slots[i].Data; len(d) == b.cfg.LineBytes {
			free = append(free, d)
		}
	}
	clear(b.slots[:cap(b.slots)])
	slotCache.put(spareSlots{slots: b.slots[:cap(b.slots)], stock: free[:0]}, b.cfg.LineBytes, free)
	b.slots, b.free = nil, nil
}
