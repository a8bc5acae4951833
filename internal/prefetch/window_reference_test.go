package prefetch

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// sliceLeap is Leap with the window it had before: a slice that
// slides with s = s[1:] and so reallocates every window-length misses.
type sliceLeap struct {
	window   int
	depth    int64
	history  []int64
	last     int64
	haveLast bool
}

func (p *sliceLeap) OnMiss(unit int64) []int64 {
	if p.haveLast {
		delta := unit - p.last
		p.history = append(p.history, delta)
		if len(p.history) > p.window {
			p.history = p.history[1:]
		}
	}
	p.last = unit
	p.haveLast = true
	if len(p.history) < p.window/2 {
		return nil
	}
	var cand int64
	count := 0
	for _, d := range p.history {
		if count == 0 {
			cand = d
			count = 1
		} else if d == cand {
			count++
		} else {
			count--
		}
	}
	occurrences := 0
	for _, d := range p.history {
		if d == cand {
			occurrences++
		}
	}
	if occurrences*2 <= len(p.history) || cand == 0 {
		return nil
	}
	out := make([]int64, 0, p.depth)
	for i := int64(1); i <= p.depth; i++ {
		out = append(out, unit+cand*i)
	}
	return out
}

// mapHistory is History as it was before its tables became slabs: one map
// per order from context key to a heap-allocated entry whose successors
// live in a map of counts plus an order slice, with a ring of keys per order
// for FIFO eviction. Kept verbatim (names prefixed) as the oracle the slab
// tables are held to.
type mapHistory struct {
	cfg        mapHistoryConfig
	tables     [3]map[uint64]*mapHistEntry
	fifos      [3]mapRing
	d1, d2, d3 int64
	have       int
	last       int64
}

type mapHistoryConfig struct {
	Depth         int
	MinCount      uint32
	MaxEntries    int
	MaxSuccessors int
}

func (c mapHistoryConfig) withDefaults() mapHistoryConfig {
	if c.Depth == 0 {
		c.Depth = 8
	}
	if c.MinCount == 0 {
		c.MinCount = 1
	}
	if c.MaxEntries == 0 {
		c.MaxEntries = 1 << 16
	}
	if c.MaxSuccessors == 0 {
		c.MaxSuccessors = 4
	}
	return c
}

type mapHistEntry struct {
	count map[int64]uint32
	order []int64
	total uint32
}

func newMapHistory(cfg mapHistoryConfig) *mapHistory {
	h := &mapHistory{cfg: cfg.withDefaults()}
	for i := range h.tables {
		h.tables[i] = map[uint64]*mapHistEntry{}
	}
	return h
}

func (h *mapHistory) record(d1, d2, d3, d int64) {
	h.recordAt(2, ctxKey(d1, d2, d3), d)
	h.recordAt(1, ctxKey(0, d2, d3), d)
	h.recordAt(0, ctxKey(0, 0, d3), d)
}

func (h *mapHistory) recordAt(idx int, k uint64, d int64) {
	e := h.tables[idx][k]
	if e == nil {
		if len(h.tables[idx]) >= h.cfg.MaxEntries {
			// Evict the oldest context still resident.
			for h.fifos[idx].len() > 0 {
				old := h.fifos[idx].pop()
				if _, ok := h.tables[idx][old]; ok {
					delete(h.tables[idx], old)
					break
				}
			}
		}
		e = &mapHistEntry{count: map[int64]uint32{}}
		h.tables[idx][k] = e
		h.fifos[idx].push(k)
	}
	h.bump(e, d)
}

func (h *mapHistory) bump(e *mapHistEntry, d int64) {
	if _, seen := e.count[d]; !seen {
		if len(e.order) >= h.cfg.MaxSuccessors {
			// Evict the lowest-count successor (earliest-inserted on
			// ties) to make room.
			vi := 0
			for i := 1; i < len(e.order); i++ {
				if e.count[e.order[i]] < e.count[e.order[vi]] {
					vi = i
				}
			}
			victim := e.order[vi]
			e.total -= e.count[victim]
			delete(e.count, victim)
			e.order = append(e.order[:vi], e.order[vi+1:]...)
		}
		e.order = append(e.order, d)
	}
	e.count[d]++
	e.total++
}

func (h *mapHistory) predict(d1, d2, d3 int64) (int64, bool) {
	if d, ok := mapConfident(h.tables[2][ctxKey(d1, d2, d3)], h.cfg.MinCount); ok {
		return d, true
	}
	if d, ok := mapConfident(h.tables[1][ctxKey(0, d2, d3)], h.cfg.MinCount); ok {
		return d, true
	}
	return mapConfident(h.tables[0][ctxKey(0, 0, d3)], h.cfg.MinCount)
}

func mapConfident(e *mapHistEntry, minCount uint32) (int64, bool) {
	if e == nil || len(e.order) == 0 {
		return 0, false
	}
	best := e.order[0]
	for _, d := range e.order[1:] {
		if e.count[d] > e.count[best] {
			best = d
		}
	}
	c := e.count[best]
	if c < minCount || 2*c <= e.total {
		return 0, false
	}
	return best, true
}

func (h *mapHistory) observe(unit int64) []int64 {
	if h.have == 0 {
		h.have, h.last = 1, unit
		return nil
	}
	d := unit - h.last
	if d == 0 {
		return nil
	}
	h.last = unit
	switch h.have {
	case 1:
		h.d3, h.have = d, 2
		return nil
	case 2:
		h.d2, h.d3, h.have = h.d3, d, 3
		return nil
	case 3:
		h.d1, h.d2, h.d3, h.have = h.d2, h.d3, d, 4
	default:
		h.record(h.d1, h.d2, h.d3, d)
		h.d1, h.d2, h.d3 = h.d2, h.d3, d
	}
	out := make([]int64, 0, h.cfg.Depth)
	d1, d2, d3, at := h.d1, h.d2, h.d3, unit
	for len(out) < h.cfg.Depth {
		d, ok := h.predict(d1, d2, d3)
		if !ok {
			break
		}
		at += d
		out = append(out, at)
		d1, d2, d3 = d2, d3, d
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func (h *mapHistory) OnMiss(unit int64) []int64            { return h.observe(unit) }
func (h *mapHistory) OnPrefetchedTouch(unit int64) []int64 { return h.observe(unit) }

// mapRing is the FIFO of context keys mapHistory evicts from.
type mapRing struct {
	buf  []uint64
	head int
	n    int
}

func (r *mapRing) len() int { return r.n }

func (r *mapRing) push(v uint64) {
	if r.n == len(r.buf) {
		grown := make([]uint64, max(2*len(r.buf), 16))
		k := copy(grown, r.buf[r.head:])
		copy(grown[k:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = v
	r.n++
}

func (r *mapRing) pop() uint64 {
	v := r.buf[r.head]
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return v
}

// missStream mixes what moves the windows: strides that win the majority
// vote, a repeating irregular cycle the tables learn, and noise that
// churns the contexts past the tables' bound.
func missStream(rng *rand.Rand, n int) []int64 {
	cycle := make([]int64, 5+rng.Intn(40))
	for i := range cycle {
		cycle[i] = rng.Int63n(1 << 12)
	}
	out := make([]int64, 0, n)
	unit := rng.Int63n(1 << 20)
	for len(out) < n {
		run := 1 + rng.Intn(60)
		switch rng.Intn(3) {
		case 0:
			stride := rng.Int63n(9) - 4
			for ; run > 0; run-- {
				unit += stride
				out = append(out, unit)
			}
		case 1:
			for ; run > 0; run-- {
				out = append(out, cycle[len(out)%len(cycle)])
			}
		default:
			for ; run > 0; run-- {
				unit = rng.Int63n(1 << 20)
				out = append(out, unit)
			}
		}
	}
	return out[:n]
}

// TestSlidingWindowsMatchSliceWindows: on seeded miss streams, Leap proposes
// exactly what its slice-windowed version proposes, over windows of several
// sizes.
func TestSlidingWindowsMatchSliceWindows(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		window, depth := 2+rng.Intn(40), int64(1+rng.Intn(8))
		leap, leapRef := NewLeap(window, depth), &sliceLeap{window: window, depth: depth}
		for i, unit := range missStream(rng, 4000) {
			if got, want := leap.OnMiss(unit, nil), leapRef.OnMiss(unit); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d miss %d (window %d): leap proposes %v, slice version %v", seed, i, window, got, want)
			}
		}
	}
}

// TestHistoryMatchesMapHistory: on 200 seeded streams of 6000 misses and
// prefetched touches, with tables of 4 to 1024 contexts so the eviction
// cursor laps many times, the slab History proposes exactly what the map
// version proposes, into a reused out. Proposals alone cannot see which of
// two tied leaders a context picks — a tied leader never holds a strict
// majority — so after every observation the test also compares, per order,
// the current context's leader, its count and the context's total.
func TestHistoryMatchesMapHistory(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := HistoryConfig{Depth: 1 + rng.Intn(8), MaxEntries: 4 << rng.Intn(9)}
		hist := NewHistory(cfg)
		ref := newMapHistory(mapHistoryConfig{Depth: cfg.Depth, MaxEntries: cfg.MaxEntries})
		var got []int64
		for i, unit := range missStream(rng, 6000) {
			var want []int64
			if rng.Intn(4) == 0 {
				got, want = hist.OnPrefetchedTouch(unit, got[:0]), ref.OnPrefetchedTouch(unit)
			} else {
				got, want = hist.OnMiss(unit, got[:0]), ref.OnMiss(unit)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d (%+v): history proposes %v, map version %v", seed, i, cfg, got, want)
			}
			if hist.have < 4 {
				continue
			}
			keys := [3]uint64{ctxKey(0, 0, hist.d3), ctxKey(0, hist.d2, hist.d3), ctxKey(hist.d1, hist.d2, hist.d3)}
			for k, key := range keys {
				e, re := hist.tables[k].lookup(key), ref.tables[k][key]
				if n, rn := len(hist.tables[k].index), len(ref.tables[k]); n != rn || (e == nil) != (re == nil) {
					t.Fatalf("seed %d step %d: order-%d table holds %d contexts (current one: %v), map version %d (%v)",
						seed, i, k+1, n, e != nil, rn, re != nil)
				}
				if e == nil {
					continue
				}
				d, c := e.leader()
				rd := re.order[0]
				for _, s := range re.order[1:] {
					if re.count[s] > re.count[rd] {
						rd = s
					}
				}
				if d != rd || c != re.count[rd] || e.total != re.total {
					t.Fatalf("seed %d step %d: order-%d context leads with %d (%d of %d), map version %d (%d of %d)",
						seed, i, k+1, d, c, e.total, rd, re.count[rd], re.total)
				}
			}
		}
		for k := range hist.tables {
			if n := len(hist.tables[k].slab); n != len(hist.tables[k].index) || n > cfg.MaxEntries {
				t.Fatalf("seed %d: order-%d slab holds %d slots, its index %d (bound %d)",
					seed, k+1, n, len(hist.tables[k].index), cfg.MaxEntries)
			}
		}
	}
}
