package offload

// extent is one run of staged bytes: arena[off:off+n] belongs at far
// address addr.
type extent struct {
	addr uint64
	off  int
	n    int
}

func (x extent) end() uint64 { return x.addr + uint64(x.n) }

// staging is one sub-offload's uncommitted stores, kept in the form the
// commit consumes: disjoint extents in ascending address order over one
// append-only byte arena. The scatter shape stores at the raw induction
// variable, so in practice every store continues the last extent and the
// whole set is a handful of runs.
type staging struct {
	exts  []extent
	arena []byte
}

// first returns the index of the first extent that ends after addr.
func (s *staging) first(addr uint64) int {
	hi := len(s.exts)
	if hi == 0 || s.exts[hi-1].end() <= addr {
		return hi
	}
	lo := 0
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); s.exts[mid].end() <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// store stages data at addr. Bytes already staged are overwritten in place;
// the rest continues the preceding extent when that extent ends both at
// addr and at the arena's tail, and becomes a new extent otherwise.
func (s *staging) store(addr uint64, data []byte) {
	i := s.first(addr)
	for len(data) > 0 {
		if i < len(s.exts) && s.exts[i].addr <= addr {
			x := s.exts[i]
			k := copy(s.arena[x.off+int(addr-x.addr):x.off+x.n], data)
			addr, data = addr+uint64(k), data[k:]
			i++
			continue
		}
		k := len(data)
		if i < len(s.exts) && s.exts[i].addr-addr < uint64(k) {
			k = int(s.exts[i].addr - addr)
		}
		if i > 0 && s.exts[i-1].end() == addr && s.exts[i-1].off+s.exts[i-1].n == len(s.arena) {
			s.exts[i-1].n += k
		} else {
			s.exts = append(s.exts, extent{})
			copy(s.exts[i+1:], s.exts[i:])
			s.exts[i] = extent{addr: addr, off: len(s.arena), n: k}
			i++
		}
		s.arena = append(s.arena, data[:k]...)
		addr, data = addr+uint64(k), data[k:]
	}
}

// overlay patches every staged byte of [addr, addr+len(buf)) over buf and
// reports how many bytes it patched (len(buf): the read is wholly staged).
func (s *staging) overlay(addr uint64, buf []byte) int {
	end := addr + uint64(len(buf))
	patched := 0
	for i := s.first(addr); i < len(s.exts) && s.exts[i].addr < end; i++ {
		x := s.exts[i]
		at, from := 0, x.off
		if x.addr > addr {
			at = int(x.addr - addr)
		} else {
			from += int(addr - x.addr)
		}
		patched += copy(buf[at:], s.arena[from:x.off+x.n])
	}
	return patched
}

// committed is one coalesced extent of a commit: the n bytes one pool write
// lands at addr, attributed to one serving node's link.
type committed struct {
	addr uint64
	n    int
	data []byte
	node int
	runs int // staged runs it was coalesced from
}

func (c *committed) end() uint64 { return c.addr + uint64(c.n) }

// merger coalesces the finished subs' staged extents into the
// address-ordered extents a commit writes. Its slices are scratch the
// engine keeps between commits.
type merger struct {
	out   []committed
	heads []int
	buf   []byte
}

// merge returns the union of every sub's staged runs: runs that touch or
// overlap become one extent, and where two subs staged the same byte the
// later one in done wins. An extent that is a single run aliases that sub's
// arena; one coalesced from several is assembled, once, in m.buf. The
// result is valid until the next merge.
func (m *merger) merge(done []*sub) []committed {
	m.out = m.out[:0]
	m.heads = m.heads[:0]
	for range done {
		m.heads = append(m.heads, 0)
	}
	// Outline the union: take the subs' extents in address order.
	for {
		pick := -1
		var x extent
		for i, sb := range done {
			exts := sb.env.st.exts
			if h := m.heads[i]; h < len(exts) && (pick < 0 || exts[h].addr < x.addr) {
				pick, x = i, exts[h]
			}
		}
		if pick < 0 {
			break
		}
		m.heads[pick]++
		if n := len(m.out); n > 0 && x.addr <= m.out[n-1].end() {
			last := &m.out[n-1]
			if x.end() > last.end() {
				last.n = int(x.end() - last.addr)
			}
			last.runs++
			continue
		}
		m.out = append(m.out, committed{addr: x.addr, n: x.n, runs: 1})
	}

	assembled := 0
	for i := range m.out {
		if m.out[i].runs > 1 {
			assembled += m.out[i].n
		}
	}
	if cap(m.buf) < assembled {
		m.buf = make([]byte, assembled)
	}
	buf := m.buf[:assembled]
	for i := range m.out {
		if c := &m.out[i]; c.runs > 1 {
			c.data, buf = buf[:c.n:c.n], buf[c.n:]
		}
	}
	// Fill in done order, so a later sub's bytes land over an earlier one's.
	for _, sb := range done {
		st := &sb.env.st
		j := 0
		for _, x := range st.exts {
			for m.out[j].end() <= x.addr {
				j++
			}
			c := &m.out[j]
			if run := st.arena[x.off : x.off+x.n]; c.runs == 1 {
				c.data = run
			} else {
				copy(c.data[x.addr-c.addr:], run)
			}
		}
	}
	return m.out
}
