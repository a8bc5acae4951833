package cache

// direct is a direct-mapped section: line i of far memory maps to slot
// (i mod nSlots). There is no victim choice; a conflicting resident line is
// evicted (the compiler only chooses Direct for sequential/strided patterns,
// where conflicts do not occur — §4.2).
type direct struct {
	lineBufs
	cfg      Config
	slots    []Line
	stats    Stats
	tick     uint64
	occupied int
}

func newDirect(cfg Config) *direct {
	return &direct{lineBufs: lineBufs{lineBytes: cfg.LineBytes}, cfg: cfg, slots: make([]Line, cfg.Lines())}
}

func (d *direct) Config() Config { return d.cfg }

func (d *direct) slotOf(tag uint64) int {
	return int((tag / uint64(d.cfg.LineBytes)) % uint64(len(d.slots)))
}

func (d *direct) Lookup(addr uint64) (*Line, bool) {
	tag := AlignDown(addr, d.cfg.LineBytes)
	s := &d.slots[d.slotOf(tag)]
	if s.valid && s.Tag == tag {
		d.tick++
		s.lastUse = d.tick
		d.stats.Hits++
		return s, true
	}
	d.stats.Misses++
	return nil, false
}

func (d *direct) Peek(addr uint64) (*Line, bool) {
	tag := AlignDown(addr, d.cfg.LineBytes)
	s := &d.slots[d.slotOf(tag)]
	if s.valid && s.Tag == tag {
		return s, true
	}
	return nil, false
}

func (d *direct) Touch(uint64) {}

func (d *direct) Reserve(addr uint64) (*Line, Victim) {
	tag := AlignDown(addr, d.cfg.LineBytes)
	s := &d.slots[d.slotOf(tag)]
	if s.valid && s.Tag == tag {
		panic("cache: Reserve of resident line")
	}
	data := d.Spare()
	var v Victim
	if s.valid {
		v = d.retire(s)
		d.stats.Evictions++
		if s.Evictable {
			d.stats.HintEvicts++
		}
		if d.occupied < len(d.slots) {
			d.stats.Conflicts++
			v.Conflict = true
		}
		if v.Dirty {
			d.stats.Writebacks++
		}
	} else {
		d.occupied++
	}
	d.tick++
	*s = Line{Tag: tag, Data: data, valid: true, lastUse: d.tick}
	return s, v
}

func (d *direct) MarkEvictable(addr uint64) bool {
	if l, ok := d.Peek(addr); ok {
		l.Evictable = true
		return true
	}
	return false
}

func (d *direct) Drop(addr uint64) (Victim, bool) {
	tag := AlignDown(addr, d.cfg.LineBytes)
	s := &d.slots[d.slotOf(tag)]
	if !s.valid || s.Tag != tag {
		return Victim{}, false
	}
	v := d.retire(s)
	if s.Evictable {
		d.stats.FlushedHint++
	}
	*s = Line{}
	d.occupied--
	return v, true
}

func (d *direct) ForEachResident(fn func(*Line)) {
	for i := range d.slots {
		if d.slots[i].valid {
			fn(&d.slots[i])
		}
	}
}

func (d *direct) Stats() Stats { return d.stats }
func (d *direct) ResetStats()  { d.stats = Stats{} }

var _ Section = (*direct)(nil)
