package cache

import (
	"sync"
	"unsafe"
)

// spareSlotsBytes bounds what the free list keeps between sessions: the slot
// arrays and line buffers of a few dozen set-associative sections at the
// sizes the planner samples, a small fraction of one session's far heap.
const spareSlotsBytes = 16 << 20

// maxSpareSlots bounds the entries take scans.
const maxSpareSlots = 32

// slotCache is the process's free list of set-associative storage. A section
// of narrow lines (one field span per element) holds many slots, each with
// its own line buffer, and a process that opens one session after another —
// the planner's candidates, the harness cells — would make them all again
// for each. Release hands a section's slot array and buffers to the list,
// newSetAssoc takes an array at least as long as it needs with buffers of its
// line size. Slots go back cleared and every buffer is cleared when Spare
// hands it out, so a recycled section is indistinguishable from a fresh one
// and runs stay replay-identical. Like farmem's region list it is shared by
// every session of the process, so it is lock-guarded.
var slotCache = slotList{max: spareSlotsBytes}

type slotList struct {
	mu    sync.Mutex
	max   int // the bound on held
	held  int // Σ bytes over spare
	spare []spareSlots
}

// spareSlots is one released section's storage: cleared slots and the line
// buffers it owned, all lineBytes long.
type spareSlots struct {
	lineBytes int
	slots     []Line
	free      [][]byte
}

func (s spareSlots) bytes() int {
	return cap(s.slots)*int(unsafe.Sizeof(Line{})) + len(s.free)*(s.lineBytes+int(unsafe.Sizeof([]byte(nil))))
}

// take returns n cleared slots and a stock of lineBytes-long buffers (nil
// when the list holds nothing that fits): the spare of the smallest slot
// array at least n long with that line size.
func (l *slotList) take(n, lineBytes int) ([]Line, [][]byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	best := -1
	for i, s := range l.spare {
		if s.lineBytes == lineBytes && cap(s.slots) >= n && (best < 0 || cap(s.slots) < cap(l.spare[best].slots)) {
			best = i
		}
	}
	if best < 0 {
		return make([]Line, n), nil
	}
	s := l.spare[best]
	l.held -= s.bytes()
	l.spare[best] = l.spare[len(l.spare)-1]
	l.spare[len(l.spare)-1] = spareSlots{}
	l.spare = l.spare[:len(l.spare)-1]
	return s.slots[:n], s.free
}

// put keeps s for a later take. Storage that would take the list over its
// bound, or past its entry count, empties the list first: what it holds is
// from sessions gone by.
func (l *slotList) put(s spareSlots) {
	size := s.bytes()
	if size > l.max {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.held+size > l.max || len(l.spare) == maxSpareSlots {
		clear(l.spare)
		l.spare, l.held = l.spare[:0], 0
	}
	l.spare = append(l.spare, s)
	l.held += size
}

// Release hands a set-associative section's slot array and line buffers to
// the free list the next set-associative section of the process takes from
// (other structures keep theirs). The section holds nothing afterwards: it
// must not be used again, and a dirty line still resident is dropped
// unwritten — release a section only once its data is safe or no longer
// wanted, as a closed session's is.
func Release(sec Section) {
	s, ok := sec.(*setAssoc)
	if !ok || s.slots == nil {
		return
	}
	free := s.free
	for i := range s.slots {
		if d := s.slots[i].Data; len(d) == s.lineBytes {
			free = append(free, d)
		}
	}
	clear(s.slots[:cap(s.slots)])
	slotCache.put(spareSlots{lineBytes: s.lineBytes, slots: s.slots[:cap(s.slots)], free: free})
	s.slots, s.free = nil, nil
}
