package swap

import (
	"slices"

	"mira/internal/plane"
	"mira/internal/sim"
	"mira/internal/trace"
)

// Length reports the region byte count the cache serves.
func (c *Cache) Length() int64 { return c.length }

// Fence blocks clk until every in-flight prefetched page and asynchronous
// eviction write-back has landed.
func (c *Cache) Fence(clk *sim.Clock) {
	latest := c.lastWb
	for i, p := range c.frames {
		if p.readyAt > latest && c.resident(int32(i)) {
			latest = p.readyAt
		}
	}
	clk.AdvanceTo(latest)
}

// FlushRange writes back and drops every resident page overlapping
// [far, far+length), blocking clk until the last write-back lands: the page
// plane's Evict.
func (c *Cache) FlushRange(clk *sim.Clock, far uint64, length int64) error {
	if length <= 0 || c.Resident() == 0 {
		return nil
	}
	lo, hi := far, far+uint64(length)
	regEnd := c.base + uint64(c.length)
	if lo < c.base {
		lo = c.base
	}
	if hi > regEnd {
		hi = regEnd
	}
	if lo >= hi {
		return nil
	}
	first := int64((lo - c.base) / PageBytes)
	last := int64((hi - 1 - c.base) / PageBytes)
	// In page order, like FlushAll.
	var done sim.Time
	for no := first; no <= last; no++ {
		i := c.frameOf[no]
		if i < 0 {
			continue
		}
		p := c.frames[i]
		c.release(i)
		if p.dirty {
			c.stats.Writebacks++
			t, err := c.tr.WriteOneSided(clk.Now(), c.base+uint64(no)*PageBytes, p.data)
			if err != nil {
				return err
			}
			if t > done {
				done = t
			}
		}
	}
	if done > c.lastWb {
		c.lastWb = done
	}
	clk.AdvanceTo(done)
	return nil
}

// PrefetchPages issues an advisory fetch for the given page numbers, exactly
// as a prefetcher proposal would (out-of-range and resident pages dropped,
// batch gather when configured). Callers outside the fault path — compiled
// prefetch statements of swap-placed objects — use it to turn their hints
// into page advisories.
func (c *Cache) PrefetchPages(clk *sim.Clock, pnos []int64) error {
	return c.issueAdvisory(clk, -1, pnos)
}

// AbsentPages counts the distinct pages among pnos that PrefetchPages asks
// far memory for: inside the region and neither resident nor in flight.
func (c *Cache) AbsentPages(pnos []int64) int {
	n := 0
	for i, pno := range pnos {
		if pno >= 0 && pno < c.npages() && c.frameOf[pno] < 0 && !slices.Contains(pnos[:i], pno) {
			n++
		}
	}
	return n
}

// Plane adapts the cache to the plane.DataPlane contract.
type Plane struct {
	C *Cache
}

var _ plane.DataPlane = Plane{}

func (p Plane) Kind() plane.Kind     { return plane.Page }
func (p Plane) UnitBytes() int       { return PageBytes }
func (p Plane) CapacityUnits() int   { return p.C.Capacity() }
func (p Plane) ResidentUnits() int   { return p.C.Resident() }
func (p Plane) Fence(clk *sim.Clock) { p.C.Fence(clk) }

func (p Plane) Access(clk *sim.Clock, far uint64, buf []byte, write bool) error {
	if write {
		return p.C.Write(clk, far, buf)
	}
	return p.C.Read(clk, far, buf)
}

func (p Plane) PrefetchBatch(clk *sim.Clock, fars []uint64) error {
	pnos := make([]int64, 0, len(fars))
	for _, far := range fars {
		if far < p.C.base {
			pnos = append(pnos, -1) // counted as dropped by the advisory path
			continue
		}
		pnos = append(pnos, int64((far-p.C.base)/PageBytes))
	}
	return p.C.PrefetchPages(clk, pnos)
}

func (p Plane) Evict(clk *sim.Clock, far uint64, length int64) error {
	return p.C.FlushRange(clk, far, length)
}

func (p Plane) Flush(clk *sim.Clock) error { return p.C.FlushAll(clk) }

func (p Plane) Stats() plane.Stats {
	st := p.C.Stats()
	hits := st.Accesses - st.MajorFaults
	if hits < 0 {
		hits = 0
	}
	return plane.Stats{
		Accesses:       st.Accesses,
		Hits:           hits,
		Misses:         st.MajorFaults,
		Evictions:      st.Evictions,
		Writebacks:     st.Writebacks,
		PrefetchIssued: st.Prefetches,
		PrefetchUseful: st.PrefetchUsed,
	}
}

func (p Plane) SetTrace(tr *trace.Tracer) { p.C.SetTrace(tr) }
