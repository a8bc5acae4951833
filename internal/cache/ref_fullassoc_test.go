package cache

import "container/list"

// refFullAssoc is a fully-associative section. Residency is a tag→line map and
// replacement approximates LRU with the paper's active/inactive two-list
// scheme (§5.3): new lines enter the inactive list; a hit on an inactive
// line promotes it to the active list; victims come from the inactive tail
// (preferring evictable-marked lines within a bounded scan); when the
// inactive list runs dry the active tail is demoted.
type refFullAssoc struct {
	cfg      Config
	capacity int
	lines    map[uint64]*list.Element // tag -> element in active or inactive
	active   *list.List               // front = most recent
	inactive *list.List               // front = most recent
	stats    Stats
	tick     uint64
}

// refFaEntry is the list payload: the line plus which list it lives on.
type refFaEntry struct {
	line     Line
	inActive bool
}

func newRefFullAssoc(cfg Config) *refFullAssoc {
	return &refFullAssoc{
		cfg:      cfg,
		capacity: cfg.Lines(),
		lines:    make(map[uint64]*list.Element, cfg.Lines()),
		active:   list.New(),
		inactive: list.New(),
	}
}

func (f *refFullAssoc) Config() Config { return f.cfg }

func (f *refFullAssoc) Lookup(addr uint64) (*Line, bool) {
	tag := AlignDown(addr, f.cfg.LineBytes)
	el, ok := f.lines[tag]
	if !ok {
		f.stats.Misses++
		return nil, false
	}
	f.stats.Hits++
	f.tick++
	e := el.Value.(*refFaEntry)
	e.line.lastUse = f.tick
	if e.inActive {
		f.active.MoveToFront(el)
	} else {
		// Promote: second touch moves the line to the active list.
		f.inactive.Remove(el)
		e.inActive = true
		f.lines[tag] = f.active.PushFront(e)
		// Bound the active list to half the capacity (the Linux
		// active:inactive balance): otherwise streamed-once lines
		// clog it and evictions cannibalize prefetched lines.
		for f.active.Len() > f.capacity/2 {
			tail := f.active.Back()
			te := tail.Value.(*refFaEntry)
			f.active.Remove(tail)
			te.inActive = false
			f.lines[te.line.Tag] = f.inactive.PushBack(te)
		}
	}
	return &e.line, true
}

func (f *refFullAssoc) Peek(addr uint64) (*Line, bool) {
	tag := AlignDown(addr, f.cfg.LineBytes)
	if el, ok := f.lines[tag]; ok {
		return &el.Value.(*refFaEntry).line, true
	}
	return nil, false
}

func (f *refFullAssoc) Reserve(addr uint64) (*Line, Victim) {
	tag := AlignDown(addr, f.cfg.LineBytes)
	if _, ok := f.lines[tag]; ok {
		panic("cache: Reserve of resident line")
	}
	var v Victim
	if len(f.lines) >= f.capacity {
		v = f.evictOne()
	}
	f.tick++
	e := &refFaEntry{line: Line{Tag: tag, Data: make([]byte, f.cfg.LineBytes), valid: true, lastUse: f.tick}}
	f.lines[tag] = f.inactive.PushFront(e)
	return &e.line, v
}

// evictOne removes one victim line and returns it.
func (f *refFullAssoc) evictOne() Victim {
	el := f.chooseVictim()
	e := el.Value.(*refFaEntry)
	if e.inActive {
		f.active.Remove(el)
	} else {
		f.inactive.Remove(el)
	}
	delete(f.lines, e.line.Tag)
	f.stats.Evictions++
	if e.line.Evictable {
		f.stats.HintEvicts++
	}
	if e.line.Dirty {
		f.stats.Writebacks++
	}
	return Victim{Tag: e.line.Tag, Data: e.line.Data, Dirty: e.line.Dirty}
}

// chooseVictim scans the inactive tail for an evictable-marked line within
// the scan budget, falling back to the inactive tail, then the active tail.
func (f *refFullAssoc) chooseVictim() *list.Element {
	// Refill the inactive list from the active tail if empty.
	if f.inactive.Len() == 0 {
		if tail := f.active.Back(); tail != nil {
			e := tail.Value.(*refFaEntry)
			f.active.Remove(tail)
			e.inActive = false
			f.lines[e.line.Tag] = f.inactive.PushBack(e)
		}
	}
	scanned := 0
	for el := f.inactive.Back(); el != nil && scanned < evictScanLimit; el = el.Prev() {
		scanned++
		if el.Value.(*refFaEntry).line.Evictable {
			return el
		}
	}
	if el := f.inactive.Back(); el != nil {
		return el
	}
	return f.active.Back()
}

func (f *refFullAssoc) MarkEvictable(addr uint64) bool {
	if l, ok := f.Peek(addr); ok {
		l.Evictable = true
		return true
	}
	return false
}

func (f *refFullAssoc) Drop(addr uint64) (Victim, bool) {
	tag := AlignDown(addr, f.cfg.LineBytes)
	el, ok := f.lines[tag]
	if !ok {
		return Victim{}, false
	}
	e := el.Value.(*refFaEntry)
	if e.inActive {
		f.active.Remove(el)
	} else {
		f.inactive.Remove(el)
	}
	delete(f.lines, tag)
	if e.line.Evictable {
		f.stats.FlushedHint++
	}
	return Victim{Tag: e.line.Tag, Data: e.line.Data, Dirty: e.line.Dirty}, true
}

func (f *refFullAssoc) ForEachResident(fn func(*Line)) {
	for el := f.active.Front(); el != nil; el = el.Next() {
		fn(&el.Value.(*refFaEntry).line)
	}
	for el := f.inactive.Front(); el != nil; el = el.Next() {
		fn(&el.Value.(*refFaEntry).line)
	}
}

func (f *refFullAssoc) Stats() Stats { return f.stats }
func (f *refFullAssoc) ResetStats()  { f.stats = Stats{} }

// Resident reports the number of resident lines (tests only).
func (f *refFullAssoc) Resident() int { return len(f.lines) }
