package cache

// fullAssoc is a fully-associative section. Residency is a tag→slot map and
// replacement approximates LRU with the paper's active/inactive two-list
// scheme (§5.3, TwoList): new lines enter the inactive list; a hit on an
// inactive line promotes it to the active list; victims come from the
// inactive tail (preferring evictable-marked lines within a bounded scan);
// when the inactive list runs dry the active tail is demoted.
//
// Slots are made on first use up to the capacity and then only recycled, so
// a *Line stays valid (and names the same slot) for the section's lifetime.
type fullAssoc struct {
	lineBufs
	cfg      Config
	capacity int
	slotOf   map[uint64]int32 // tag -> index into lines
	lines    []*Line
	free     []int32 // vacated slots
	lru      *TwoList
	stats    Stats
	tick     uint64
}

// evictScanLimit bounds the eviction-hint scan of the inactive tail; a
// bounded scan keeps eviction O(1) amortized while still honouring most
// hints, matching a realistic runtime implementation.
const evictScanLimit = 8

func newFullAssoc(cfg Config) *fullAssoc {
	return &fullAssoc{
		lineBufs: lineBufs{lineBytes: cfg.LineBytes},
		cfg:      cfg,
		capacity: cfg.Lines(),
		slotOf:   make(map[uint64]int32, cfg.Lines()),
		lru:      NewTwoList(cfg.Lines()),
	}
}

func (f *fullAssoc) Config() Config { return f.cfg }

func (f *fullAssoc) Lookup(addr uint64) (*Line, bool) {
	i, ok := f.slotOf[AlignDown(addr, f.cfg.LineBytes)]
	if !ok {
		f.stats.Misses++
		return nil, false
	}
	f.stats.Hits++
	f.tick++
	f.lines[i].lastUse = f.tick
	f.lru.Touch(i)
	return f.lines[i], true
}

func (f *fullAssoc) Peek(addr uint64) (*Line, bool) {
	if i, ok := f.slotOf[AlignDown(addr, f.cfg.LineBytes)]; ok {
		return f.lines[i], true
	}
	return nil, false
}

func (f *fullAssoc) Touch(addr uint64) {
	if i, ok := f.slotOf[AlignDown(addr, f.cfg.LineBytes)]; ok {
		f.tick++
		f.lines[i].lastUse = f.tick
		f.lru.Touch(i)
	}
}

func (f *fullAssoc) Reserve(addr uint64) (*Line, Victim) {
	tag := AlignDown(addr, f.cfg.LineBytes)
	if _, ok := f.slotOf[tag]; ok {
		panic("cache: Reserve of resident line")
	}
	data := f.Spare()
	var v Victim
	var i int32
	switch {
	case len(f.slotOf) >= f.capacity:
		i = f.chooseVictim()
		l := f.lines[i]
		f.stats.Evictions++
		if l.Evictable {
			f.stats.HintEvicts++
		}
		if l.Dirty {
			f.stats.Writebacks++
		}
		v = f.vacate(i)
	case len(f.free) > 0:
		i = f.free[len(f.free)-1]
		f.free = f.free[:len(f.free)-1]
	default:
		i = int32(len(f.lines))
		f.lines = append(f.lines, new(Line))
	}
	f.tick++
	*f.lines[i] = Line{Tag: tag, Data: data, valid: true, lastUse: f.tick}
	f.slotOf[tag] = i
	f.lru.Insert(i)
	return f.lines[i], v
}

// vacate takes slot i's line out of the map and the lists and returns it as
// a victim. The slot itself is the caller's to reuse or free.
func (f *fullAssoc) vacate(i int32) Victim {
	f.lru.Remove(i)
	delete(f.slotOf, f.lines[i].Tag)
	return f.retire(f.lines[i])
}

// chooseVictim scans the inactive tail for an evictable-marked line within
// the scan budget, falling back to the tail itself. After Refill the inactive
// list is empty only when nothing is resident; the active tail is then the
// empty-list index.
func (f *fullAssoc) chooseVictim() int32 {
	f.lru.Refill()
	tail := f.lru.Back(Inactive)
	if tail < 0 {
		return f.lru.Back(Active)
	}
	scanned := 0
	for i := tail; i >= 0 && scanned < evictScanLimit; i = f.lru.Prev(i) {
		if f.lines[i].Evictable {
			return i
		}
		scanned++
	}
	return tail
}

func (f *fullAssoc) MarkEvictable(addr uint64) bool {
	if l, ok := f.Peek(addr); ok {
		l.Evictable = true
		return true
	}
	return false
}

func (f *fullAssoc) Drop(addr uint64) (Victim, bool) {
	i, ok := f.slotOf[AlignDown(addr, f.cfg.LineBytes)]
	if !ok {
		return Victim{}, false
	}
	if f.lines[i].Evictable {
		f.stats.FlushedHint++
	}
	v := f.vacate(i)
	*f.lines[i] = Line{}
	f.free = append(f.free, i)
	return v, true
}

func (f *fullAssoc) ForEachResident(fn func(*Line)) {
	for _, l := range [...]List{Active, Inactive} {
		for i := f.lru.Front(l); i >= 0; i = f.lru.Next(i) {
			fn(f.lines[i])
		}
	}
}

func (f *fullAssoc) Stats() Stats { return f.stats }
func (f *fullAssoc) ResetStats()  { f.stats = Stats{} }

// Resident reports the number of resident lines (tests only).
func (f *fullAssoc) Resident() int { return len(f.slotOf) }

var _ Section = (*fullAssoc)(nil)
