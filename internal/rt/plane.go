package rt

import (
	"fmt"
	"sort"

	"mira/internal/cache"
	"mira/internal/codec"
	"mira/internal/plane"
	"mira/internal/sim"
	"mira/internal/swap"
	"mira/internal/trace"
)

// PagePlane returns the paged data plane over the runtime's swap region as
// a plane.DataPlane (nil when the configuration has no swap cache).
// Accesses charge the same costs as Runtime.Access's swap path, including
// the SwapCompress wire codec.
func (r *Runtime) PagePlane() plane.DataPlane {
	if r.swapC == nil {
		return nil
	}
	return &pagePlane{r: r}
}

type pagePlane struct{ r *Runtime }

func (p *pagePlane) Kind() plane.Kind   { return plane.Page }
func (p *pagePlane) UnitBytes() int     { return swap.PageBytes }
func (p *pagePlane) CapacityUnits() int { return p.r.swapC.Capacity() }
func (p *pagePlane) ResidentUnits() int { return p.r.swapC.Resident() }

func (p *pagePlane) Access(clk *sim.Clock, far uint64, buf []byte, write bool) error {
	clk.Advance(p.r.cfg.Cost.NativeAccess)
	if p.r.cfg.SwapCompress {
		p.r.setCodec(codec.ByteRun)
		defer p.r.setCodec(codec.None)
	}
	if write {
		return p.r.swapC.Write(clk, far, buf)
	}
	return p.r.swapC.Read(clk, far, buf)
}

func (p *pagePlane) PrefetchBatch(clk *sim.Clock, fars []uint64) error {
	return p.r.swapPrefetchFars(clk, fars)
}

func (p *pagePlane) Evict(clk *sim.Clock, far uint64, length int64) error {
	if p.r.cfg.SwapCompress {
		p.r.setCodec(codec.ByteRun)
		defer p.r.setCodec(codec.None)
	}
	return p.r.swapC.FlushRange(clk, far, length)
}

func (p *pagePlane) Fence(clk *sim.Clock) { p.r.swapC.Fence(clk) }

func (p *pagePlane) Flush(clk *sim.Clock) error {
	if p.r.cfg.SwapCompress {
		p.r.setCodec(codec.ByteRun)
		defer p.r.setCodec(codec.None)
	}
	return p.r.swapC.FlushAll(clk)
}

func (p *pagePlane) Stats() plane.Stats        { return swap.Plane{C: p.r.swapC}.Stats() }
func (p *pagePlane) SetTrace(tr *trace.Tracer) { p.r.swapC.SetTrace(tr) }

// swapPrefetchFars turns far addresses into page advisories (out-of-range
// addresses become dropped proposals, as the advisory contract requires).
func (r *Runtime) swapPrefetchFars(clk *sim.Clock, fars []uint64) error {
	if r.swapC == nil {
		return nil
	}
	return r.swapAdvise(clk, r.swapPages(fars))
}

// swapPages maps far addresses to swap page numbers, -1 below the swap
// region, in the runtime's page scratch: valid until the next call.
func (r *Runtime) swapPages(fars []uint64) []int64 {
	base := r.swapC.Base()
	pnos := r.pnos[:0]
	for _, far := range fars {
		if far < base {
			pnos = append(pnos, -1)
			continue
		}
		pnos = append(pnos, int64((far-base)/swap.PageBytes))
	}
	r.pnos = pnos
	return pnos
}

// swapAdvise issues page advisories through the runtime's swap codec
// settings.
func (r *Runtime) swapAdvise(clk *sim.Clock, pnos []int64) error {
	if r.cfg.SwapCompress {
		r.setCodec(codec.ByteRun)
		defer r.setCodec(codec.None)
	}
	return r.swapC.PrefetchPages(clk, pnos)
}

// LinePlane returns cache section idx as a plane.DataPlane: an address-based
// view over the section's objects, resolving owners through the same
// deterministic farBase index the dirty write-back path uses.
func (r *Runtime) LinePlane(idx int) (plane.DataPlane, error) {
	if idx < 0 || idx >= len(r.secs) {
		return nil, fmt.Errorf("rt: line plane index %d of %d sections", idx, len(r.secs))
	}
	return &linePlane{r: r, idx: idx}, nil
}

type linePlane struct {
	r   *Runtime
	idx int
}

func (p *linePlane) s() *sectionRT      { return p.r.secs[p.idx] }
func (p *linePlane) Kind() plane.Kind   { return plane.Line }
func (p *linePlane) UnitBytes() int     { return p.s().spec.Cache.LineBytes }
func (p *linePlane) CapacityUnits() int { return p.s().sec.Config().Lines() }

func (p *linePlane) ResidentUnits() int {
	n := 0
	p.s().sec.ForEachResident(func(*cache.Line) { n++ })
	return n
}

func (p *linePlane) Access(clk *sim.Clock, far uint64, buf []byte, write bool) error {
	o := p.r.ownerOf(far)
	if o == nil || o.place.Kind != PlaceSection || o.place.Section != p.idx {
		return fmt.Errorf("rt: far address %#x is not served by section %d", far, p.idx)
	}
	return p.r.sectionAccess(clk, o, far, buf, write, AccessOpts{})
}

func (p *linePlane) PrefetchBatch(clk *sim.Clock, fars []uint64) error {
	s := p.s()
	seen := make(map[uint64]bool, len(fars))
	var tags []uint64
	for _, far := range fars {
		if t := cache.AlignDown(far, s.spec.Cache.LineBytes); !seen[t] {
			seen[t] = true
			tags = append(tags, t)
		}
	}
	p.r.issueSpeculative(clk, s, tags)
	return nil
}

func (p *linePlane) Evict(clk *sim.Clock, far uint64, length int64) error {
	if length <= 0 {
		return nil
	}
	return p.r.flushSectionRange(clk, p.s(), far, far+uint64(length))
}

func (p *linePlane) Fence(clk *sim.Clock) {
	s := p.s()
	_, _ = p.r.drainWbq(clk, s)
	clk.AdvanceTo(s.latestReady(p.r.lastFlush))
}

func (p *linePlane) Flush(clk *sim.Clock) error {
	return p.r.flushSectionRange(clk, p.s(), 0, ^uint64(0))
}

func (p *linePlane) Stats() plane.Stats {
	s := p.s()
	st := s.sec.Stats()
	return plane.Stats{
		Accesses:       st.Hits + st.Misses,
		Hits:           st.Hits,
		Misses:         st.Misses,
		Evictions:      st.Evictions,
		Writebacks:     st.Writebacks,
		PrefetchIssued: s.pf.Issued,
		PrefetchUseful: s.pf.Useful,
	}
}

func (p *linePlane) SetTrace(tr *trace.Tracer) { p.r.SetTrace(tr) }

// flushSectionRange writes back and drops every resident line of s whose tag
// lies in [lo, hi), draining the section's write-back queue so the bytes are
// authoritative in far memory on return.
func (r *Runtime) flushSectionRange(clk *sim.Clock, s *sectionRT, lo, hi uint64) error {
	lines := s.linesIn(lo, hi)
	// Sorted write-back order keeps queueing on the shared link — and so
	// sim times — independent of the section's internal iteration order.
	sort.Slice(lines, func(i, j int) bool { return lines[i].Tag < lines[j].Tag })
	for _, l := range lines {
		if l.Dirty && s.wbq == nil {
			clk.Advance(r.cfg.Net.PerMessageOverhead)
		}
		if _, err := r.drop(clk, s, l.Tag); err != nil {
			return err
		}
	}
	done, err := r.drainWbq(clk, s)
	if err != nil {
		return err
	}
	clk.AdvanceTo(done)
	return nil
}
