package rt

import (
	"fmt"
	"sort"

	"mira/internal/cache"
	"mira/internal/codec"
	"mira/internal/ir"
	"mira/internal/plane"
	"mira/internal/sim"
	"mira/internal/swap"
	"mira/internal/trace"
)

// bindHybrid is Bind under Config.Hybrid: every far object — swap- and
// section-placed alike — is laid out in ONE contiguous far region, sorted by
// name, with each object padded out to whole 4 KiB pages (section objects
// also reserve head/tail line slack so their line-aligned lines never leave
// their own pages). The swap cache covers the region end to end. Because no
// page is shared between two objects and no line leaves its object's pages,
// either plane can serve any object's range without touching a neighbor's
// state — the invariant MigrateObject relies on.
//
// For an all-swap configuration the layout (sort order, page-rounded
// offsets, single heap allocation) is byte-for-byte the classic Bind swap
// layout, so pure-page runs under Hybrid time identically to the classic
// swap path.
func (r *Runtime) bindHybrid(p *ir.Program) error {
	var far []*ir.Object
	anySwap := false
	for _, o := range p.Objects {
		pl, ok := r.cfg.Placements[o.Name]
		if !ok {
			if o.Local {
				pl = Placement{Kind: PlaceLocal}
			} else {
				pl = Placement{Kind: PlaceSwap}
			}
		}
		ort := &objectRT{decl: o, place: pl, homeSec: -1}
		switch pl.Kind {
		case PlaceLocal:
			ort.local = make([]byte, o.SizeBytes())
			r.localBytes += o.SizeBytes()
		case PlaceSwap:
			anySwap = true
			far = append(far, o)
		case PlaceSection:
			ort.homeSec = pl.Section
			far = append(far, o)
		}
		r.objs[o.Name] = ort
	}
	if len(far) > 0 {
		sort.Slice(far, func(i, j int) bool { return far[i].Name < far[j].Name })
		var total int64
		offsets := make(map[string]int64, len(far))
		for _, o := range far {
			offsets[o.Name] = total
			size := o.SizeBytes()
			if hs := r.objs[o.Name].homeSec; hs >= 0 {
				// Line slack: the line-aligned farBase sits up to one line
				// past the page start, and the object's last line may extend
				// past its end — pad so every line a section can hold stays
				// inside this object's own pages.
				size += 2 * int64(r.secs[hs].spec.Cache.LineBytes)
			}
			total += (size + swap.PageBytes - 1) / swap.PageBytes * swap.PageBytes
		}
		base, err := r.la.Alloc(uint64(total))
		if err != nil {
			return fmt.Errorf("rt: bind hybrid heap: %w", err)
		}
		for _, o := range far {
			ort := r.objs[o.Name]
			ort.farBase = base + uint64(offsets[o.Name])
			if ort.homeSec >= 0 {
				s := r.secs[ort.homeSec]
				lb := uint64(s.spec.Cache.LineBytes)
				ort.farBase = (ort.farBase + lb - 1) / lb * lb
				r.resolveSelective(ort, s)
			}
		}
		pool := r.cfg.SwapPool
		if anySwap && pool <= 0 {
			return fmt.Errorf("rt: program has swap-placed objects but SwapPool is %d", pool)
		}
		if pool > 0 {
			sc, err := swap.New(r.cfg.effectiveSwapCfg(pool), r.tr, base, total, nil)
			if err != nil {
				return err
			}
			r.swapC = sc
			r.swapSz = total
		}
	}
	if r.localBytes+r.cfg.CarveUpBytes() > r.cfg.LocalBudget {
		return fmt.Errorf("rt: local objects (%d) + cache carve-up exceed budget %d",
			r.localBytes, r.cfg.LocalBudget)
	}
	r.rebuildOwnerIndex()
	return nil
}

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
	return p.r.swapFlushRange(clk, far, length)
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

// swapFlushRange is FlushRange through the runtime's swap codec settings.
func (r *Runtime) swapFlushRange(clk *sim.Clock, far uint64, length int64) error {
	if r.swapC == nil {
		return nil
	}
	if r.cfg.SwapCompress {
		r.setCodec(codec.ByteRun)
		defer r.setCodec(codec.None)
	}
	return r.swapC.FlushRange(clk, far, length)
}

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
// authoritative in far memory on return — the line plane's migration drain.
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

// ObjectPlane reports which plane currently serves a bound far object
// (false for unknown or local objects).
func (r *Runtime) ObjectPlane(name string) (plane.Kind, bool) {
	o, ok := r.objs[name]
	if !ok || o.place.Kind == PlaceLocal {
		return plane.Page, false
	}
	if o.place.Kind == PlaceSection {
		return plane.Line, true
	}
	return plane.Page, true
}

// MigrateObject moves one far object to the other data plane mid-run — the
// deterministic migration protocol:
//
//  1. drain the paged plane's state for the range (dirty pages write back,
//     clean stray readahead drops),
//  2. when leaving the line plane, flush the object's lines and write-back
//     queue entries through the transport (FlushObject),
//  3. flip the placement and rebuild the owner index so every subsequent
//     access, prefetch, and dirty write-back resolves to the new plane.
//
// Every step is priced into simulated time through the normal flush paths,
// so two identical runs migrate at identical instants with identical costs.
// Requires the unified Config.Hybrid layout (page-exclusive objects).
// Migrating to the plane already serving the object is a no-op.
func (r *Runtime) MigrateObject(clk *sim.Clock, name string, to plane.Kind) error {
	if !r.cfg.Hybrid {
		return fmt.Errorf("rt: MigrateObject requires the hybrid layout (Config.Hybrid)")
	}
	o, ok := r.objs[name]
	if !ok {
		return fmt.Errorf("rt: migrate of unknown object %q", name)
	}
	if o.place.Kind == PlaceLocal {
		return fmt.Errorf("rt: migrate of local object %q", name)
	}
	from := plane.Line
	if o.place.Kind == PlaceSwap {
		from = plane.Page
	}
	if from == to {
		return nil
	}
	start := clk.Now()
	size := o.decl.SizeBytes()
	switch to {
	case plane.Page:
		if r.swapC == nil {
			return fmt.Errorf("rt: migrate %q to page plane: no swap cache (SwapPool is 0)", name)
		}
		// Shed the paged plane's strays first: pages of this range fetched
		// by readahead during line tenure are clean copies of stale far
		// bytes and must not survive into page tenure. Then push the line
		// plane's authoritative dirty state through the transport.
		if err := r.swapFlushRange(clk, o.farBase, size); err != nil {
			return err
		}
		if err := r.FlushObject(clk, name); err != nil {
			return err
		}
		o.place = Placement{Kind: PlaceSwap}
	case plane.Line:
		if o.homeSec < 0 {
			return fmt.Errorf("rt: migrate %q to line plane: object has no home section", name)
		}
		// Page tenure's dirty pages become the far image the line plane
		// will fetch from; clean pages drop.
		if err := r.swapFlushRange(clk, o.farBase, size); err != nil {
			return err
		}
		o.place = Placement{Kind: PlaceSection, Section: o.homeSec}
	default:
		return fmt.Errorf("rt: migrate %q to unknown plane %v", name, to)
	}
	r.rebuildOwnerIndex()
	if r.trc != nil {
		r.trc.Span(start, clk.Now(), "rt", "plane.migrate",
			trace.S("obj", name), trace.S("from", from.String()), trace.S("to", to.String()))
		r.reg.Counter("rt.plane.migrations").Inc()
	}
	return nil
}
