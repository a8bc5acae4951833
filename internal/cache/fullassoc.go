package cache

import "fmt"

// fullAssoc is a fully-associative section. Residency is a tag→slot map and
// replacement approximates LRU with the paper's active/inactive two-list
// scheme (§5.3, twoList): new lines enter the inactive list; a hit on an
// inactive line promotes it to the active list; victims come from the
// inactive tail (preferring evictable-marked lines within a bounded scan,
// passing over pinned ones); when the inactive list runs dry the active tail
// is demoted.
//
// Slots are handed out in order on first use up to the line count and then
// only recycled, so a *Line stays valid (and names the same slot) for the
// section's lifetime.
type fullAssoc struct {
	base                    // one slot per line
	slotOf map[uint64]int32 // tag -> index into slots
	made   int32            // slots [0, made) have held a line
	vacant []int32          // vacated slots among them
	lru    *twoList
	// peeked is the slot the last Peek hit found. Touch trusts it while
	// that slot still holds the touched tag, so a Peek and the Touch that
	// follows it pay one map lookup between them.
	peeked int32
}

// evictScanLimit bounds the eviction-hint scan of the inactive tail; a
// bounded scan keeps eviction O(1) amortized while still honouring most
// hints, matching a realistic runtime implementation.
const evictScanLimit = 8

func newFullAssoc(cfg Config) *fullAssoc {
	return &fullAssoc{
		base:   newBase(cfg, cfg.Lines()),
		slotOf: make(map[uint64]int32, cfg.Lines()),
		lru:    newTwoList(cfg.Lines()),
	}
}

func (f *fullAssoc) Lookup(addr uint64) (*Line, bool) {
	i, ok := f.slotOf[AlignDown(addr, f.cfg.LineBytes)]
	if !ok {
		f.stats.Misses++
		return nil, false
	}
	f.stats.Hits++
	f.tick++
	f.slots[i].lastUse = f.tick
	f.lru.Touch(i)
	return &f.slots[i], true
}

func (f *fullAssoc) Peek(addr uint64) (*Line, bool) {
	if i, ok := f.slotOf[AlignDown(addr, f.cfg.LineBytes)]; ok {
		f.peeked = i
		return &f.slots[i], true
	}
	return nil, false
}

func (f *fullAssoc) Touch(addr uint64) {
	tag := AlignDown(addr, f.cfg.LineBytes)
	i := f.peeked
	// A valid slot holding tag is the one slotOf maps it to.
	if int(i) >= len(f.slots) || !f.slots[i].valid || f.slots[i].Tag != tag {
		var ok bool
		if i, ok = f.slotOf[tag]; !ok {
			return
		}
	}
	f.tick++
	f.slots[i].lastUse = f.tick
	f.lru.Touch(i)
}

func (f *fullAssoc) Reserve(addr uint64) (*Line, Victim) {
	tag := AlignDown(addr, f.cfg.LineBytes)
	if _, ok := f.slotOf[tag]; ok {
		panic("cache: Reserve of resident line")
	}
	full := len(f.slotOf) >= len(f.slots)
	var i int32
	if full {
		if i = f.chooseVictim(); i < 0 {
			return nil, Victim{}
		}
	}
	data := f.Spare()
	var v Victim
	switch {
	case full:
		f.unlink(i)
		v = f.evict(&f.slots[i])
	case len(f.vacant) > 0:
		i = f.vacant[len(f.vacant)-1]
		f.vacant = f.vacant[:len(f.vacant)-1]
	default:
		i = f.made
		f.made++
	}
	f.tick++
	f.slots[i] = Line{Tag: tag, Data: data, valid: true, lastUse: f.tick}
	f.slotOf[tag] = i
	f.lru.Insert(i)
	return &f.slots[i], v
}

// unlink takes slot i's line out of the lists and the map. The slot itself
// is the caller's to reuse or free.
func (f *fullAssoc) unlink(i int32) {
	f.lru.Remove(i)
	delete(f.slotOf, f.slots[i].Tag)
}

// chooseVictim scans the inactive tail for an evictable-marked line within
// the scan budget, falling back to the unpinned line nearest the tail. Pinned
// lines are passed over; only when the inactive list holds nothing else is
// the active list walked the same way. It returns -1 when every resident line
// is pinned.
func (f *fullAssoc) chooseVictim() int32 {
	f.lru.Refill()
	for _, l := range [...]lruList{inactive, active} {
		victim, scanned := int32(-1), 0
		for i := f.lru.Back(l); i >= 0 && (victim < 0 || scanned < evictScanLimit); i = f.lru.Prev(i) {
			if f.slots[i].Pinned {
				continue
			}
			if f.slots[i].Evictable {
				return i
			}
			if victim < 0 {
				victim = i
			}
			scanned++
		}
		if victim >= 0 {
			return victim
		}
	}
	return -1
}

func (f *fullAssoc) MarkEvictable(addr uint64) bool { return markEvictable(f.Peek(addr)) }

func (f *fullAssoc) Drop(addr uint64) (Victim, bool) {
	i, ok := f.slotOf[AlignDown(addr, f.cfg.LineBytes)]
	if !ok {
		return Victim{}, false
	}
	f.unlink(i)
	f.vacant = append(f.vacant, i)
	return f.drop(&f.slots[i]), true
}

func (f *fullAssoc) ForEachResident(fn func(*Line)) {
	for _, l := range [...]lruList{active, inactive} {
		for i := f.lru.Front(l); i >= 0; i = f.lru.Next(i) {
			fn(&f.slots[i])
		}
	}
}

// release hands the slots and buffers to the free list and leaves the section
// empty.
func (f *fullAssoc) release() {
	f.base.release()
	f.slotOf, f.lru, f.made, f.vacant = nil, newTwoList(0), 0, nil
}

// Occupancy is a fully-associative section's slot accounting and recency
// order.
type Occupancy struct {
	Made   int // slots that have held a line: at most the line count
	Vacant int // vacated slots among them
	// Lists holds the resident tags on the inactive and the active list,
	// front to back: equal lists mean equal victims from here on.
	Lists [2][]uint64
}

// Inspect reports a fully-associative section's Occupancy, for tests of what
// is built on one (the swap pool), and an error when its accounting does not
// add up: every slot made is resident or vacant, once. Other structures
// report a zero Occupancy.
func Inspect(sec Section) (Occupancy, error) {
	f, ok := sec.(*fullAssoc)
	if !ok {
		return Occupancy{}, nil
	}
	o := Occupancy{Made: int(f.made), Vacant: len(f.vacant)}
	for l := range o.Lists {
		for i := f.lru.Front(lruList(l)); i >= 0; i = f.lru.Next(i) {
			o.Lists[l] = append(o.Lists[l], f.slots[i].Tag)
		}
	}
	resident := len(o.Lists[0]) + len(o.Lists[1])
	if resident != len(f.slotOf) || o.Made > len(f.slots) || resident+o.Vacant != o.Made {
		return o, fmt.Errorf("cache: %d resident (%d mapped) + %d vacant != %d slots made (capacity %d)",
			resident, len(f.slotOf), o.Vacant, o.Made, len(f.slots))
	}
	seen := map[int32]bool{}
	for _, i := range f.vacant {
		if seen[i] || f.slots[i].valid {
			return o, fmt.Errorf("cache: slot %d is vacant twice or still resident", i)
		}
		seen[i] = true
	}
	return o, nil
}

var _ Section = (*fullAssoc)(nil)
