package cache

// setAssoc is a K-way set-associative section: line tags map to sets of K
// slots with true LRU within the set. Victim selection prefers lines marked
// evictable by compiler hints and spares recent prefetched lines nothing has
// touched yet while the set holds another (see chooseVictim).
type setAssoc struct {
	lineBufs
	cfg      Config
	ways     int
	nSets    int
	slots    []Line // nSets * ways, set-major
	stats    Stats
	tick     uint64
	occupied int
}

func newSetAssoc(cfg Config) *setAssoc {
	lines := cfg.Lines()
	ways := cfg.Ways
	if ways > lines {
		ways = lines
	}
	nSets := lines / ways
	if nSets < 1 {
		nSets = 1
	}
	return &setAssoc{
		lineBufs: lineBufs{lineBytes: cfg.LineBytes},
		cfg:      cfg,
		ways:     ways,
		nSets:    nSets,
		slots:    make([]Line, nSets*ways),
	}
}

func (s *setAssoc) Config() Config { return s.cfg }

func (s *setAssoc) setOf(tag uint64) int {
	return int((tag / uint64(s.cfg.LineBytes)) % uint64(s.nSets))
}

// set returns the slot slice backing tag's set.
func (s *setAssoc) set(tag uint64) []Line {
	i := s.setOf(tag) * s.ways
	return s.slots[i : i+s.ways]
}

func (s *setAssoc) Lookup(addr uint64) (*Line, bool) {
	tag := AlignDown(addr, s.cfg.LineBytes)
	set := s.set(tag)
	for i := range set {
		if set[i].valid && set[i].Tag == tag {
			s.tick++
			set[i].lastUse = s.tick
			s.stats.Hits++
			return &set[i], true
		}
	}
	s.stats.Misses++
	return nil, false
}

func (s *setAssoc) Peek(addr uint64) (*Line, bool) {
	tag := AlignDown(addr, s.cfg.LineBytes)
	set := s.set(tag)
	for i := range set {
		if set[i].valid && set[i].Tag == tag {
			return &set[i], true
		}
	}
	return nil, false
}

func (s *setAssoc) Touch(addr uint64) {
	if l, ok := s.Peek(addr); ok {
		s.tick++
		l.lastUse = s.tick
	}
}

func (s *setAssoc) Reserve(addr uint64) (*Line, Victim) {
	tag := AlignDown(addr, s.cfg.LineBytes)
	set := s.set(tag)

	// Empty slot first.
	for i := range set {
		if !set[i].valid {
			s.tick++
			set[i] = Line{Tag: tag, Data: s.Spare(), valid: true, lastUse: s.tick}
			s.occupied++
			return &set[i], Victim{}
		}
		if set[i].Tag == tag {
			panic("cache: Reserve of resident line")
		}
	}

	data := s.Spare()
	vl := &set[s.chooseVictim(set)]
	v := s.retire(vl)
	s.stats.Evictions++
	if vl.Evictable {
		s.stats.HintEvicts++
	}
	if vl.Dirty {
		s.stats.Writebacks++
	}
	if s.occupied < len(s.slots) {
		s.stats.Conflicts++
		v.Conflict = true
	}
	s.tick++
	*vl = Line{Tag: tag, Data: data, valid: true, lastUse: s.tick}
	return vl, v
}

// chooseVictim picks a slot index within a full set: the least-recent
// evictable-marked line, else the least-recent line that is not a fresh
// untouched prefetch, else — every way holds one — the least-recent line (0
// for an empty set). Evicting a prefetch before its first use turns the fetch
// it paid for into a demand miss. A prefetch (Spec) is fresh until the section
// has turned over once since it landed or was last refreshed — as many hits,
// touches and fills as it has lines — so one that nothing wanted ages out
// instead of holding its way against the lines in use.
func (s *setAssoc) chooseVictim(set []Line) int {
	best, bestEvictable, bestTouched := 0, -1, -1
	for i := range set {
		l := &set[i]
		if l.Evictable && (bestEvictable == -1 || l.lastUse < set[bestEvictable].lastUse) {
			bestEvictable = i
		}
		fresh := l.Spec && s.tick-l.lastUse < uint64(len(s.slots))
		if !fresh && (bestTouched == -1 || l.lastUse < set[bestTouched].lastUse) {
			bestTouched = i
		}
		if l.lastUse < set[best].lastUse {
			best = i
		}
	}
	switch {
	case bestEvictable != -1:
		return bestEvictable
	case bestTouched != -1:
		return bestTouched
	}
	return best
}

func (s *setAssoc) MarkEvictable(addr uint64) bool {
	if l, ok := s.Peek(addr); ok {
		l.Evictable = true
		return true
	}
	return false
}

func (s *setAssoc) Drop(addr uint64) (Victim, bool) {
	l, ok := s.Peek(addr)
	if !ok {
		return Victim{}, false
	}
	v := s.retire(l)
	if l.Evictable {
		s.stats.FlushedHint++
	}
	*l = Line{}
	s.occupied--
	return v, true
}

func (s *setAssoc) ForEachResident(fn func(*Line)) {
	for i := range s.slots {
		if s.slots[i].valid {
			fn(&s.slots[i])
		}
	}
}

func (s *setAssoc) Stats() Stats { return s.stats }
func (s *setAssoc) ResetStats()  { s.stats = Stats{} }

var _ Section = (*setAssoc)(nil)
