package prefetch

import (
	"math/rand"
	"reflect"
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

// sliceHistory is History with the context FIFOs it had before the ring.
// The embedded History supplies the tables, the context and everything
// below recordAt; its own fifos stay empty.
type sliceHistory struct {
	*History
	fifos [3][]uint64
}

func (h *sliceHistory) recordAt(idx int, k uint64, d int64) {
	e := h.tables[idx][k]
	if e == nil {
		if len(h.tables[idx]) >= h.cfg.MaxEntries {
			for len(h.fifos[idx]) > 0 {
				old := h.fifos[idx][0]
				h.fifos[idx] = h.fifos[idx][1:]
				if _, ok := h.tables[idx][old]; ok {
					delete(h.tables[idx], old)
					break
				}
			}
		}
		e = &histEntry{count: map[int64]uint32{}}
		h.tables[idx][k] = e
		h.fifos[idx] = append(h.fifos[idx], k)
	}
	h.bump(e, d)
}

func (h *sliceHistory) observe(unit int64) []int64 {
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
		h.recordAt(2, ctxKey(h.d1, h.d2, h.d3), d)
		h.recordAt(1, ctxKey(0, h.d2, h.d3), d)
		h.recordAt(0, ctxKey(0, 0, h.d3), d)
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

// TestSlidingWindowsMatchSliceWindows: on seeded miss streams, Leap and
// History propose exactly what their slice-windowed versions propose —
// over windows of several sizes and tables small enough that contexts are
// evicted throughout.
func TestSlidingWindowsMatchSliceWindows(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		window, depth := 2+rng.Intn(40), int64(1+rng.Intn(8))
		leap, leapRef := NewLeap(window, depth), &sliceLeap{window: window, depth: depth}
		cfg := HistoryConfig{Depth: 1 + rng.Intn(8), MaxEntries: 4 << rng.Intn(6), MaxSuccessors: 1 + rng.Intn(4)}
		hist, histRef := NewHistory(cfg), &sliceHistory{History: NewHistory(cfg)}
		for i, unit := range missStream(rng, 4000) {
			if got, want := leap.OnMiss(unit), leapRef.OnMiss(unit); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d miss %d (window %d): leap proposes %v, slice version %v", seed, i, window, got, want)
			}
			if got, want := hist.OnMiss(unit), histRef.observe(unit); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d miss %d (%+v): history proposes %v, slice version %v", seed, i, cfg, got, want)
			}
			if i%7 != 0 {
				continue
			}
			if got, want := hist.OnPrefetchedTouch(unit+1), histRef.observe(unit+1); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d touch %d (%+v): history proposes %v, slice version %v", seed, i, cfg, got, want)
			}
		}
		for idx := range hist.tables {
			if hist.fifos[idx].len() != len(hist.tables[idx]) || len(hist.tables[idx]) > cfg.MaxEntries {
				t.Fatalf("seed %d: order-%d table holds %d contexts, its ring %d (bound %d)",
					seed, idx+1, len(hist.tables[idx]), hist.fifos[idx].len(), cfg.MaxEntries)
			}
		}
	}
}
