package rt

import (
	"errors"
	"fmt"
	"sort"

	"mira/internal/cache"
	"mira/internal/codec"
	"mira/internal/ir"
	"mira/internal/sim"
	"mira/internal/swap"
	"mira/internal/trace"
	"mira/internal/transport"
)

// prefetchFailed reports a fetch failure a prefetch may swallow: prefetch is
// advisory, so transient trouble (or an open breaker) degrades to "no
// prefetch" instead of aborting the program.
func prefetchFailed(err error) bool {
	return errors.Is(err, transport.ErrFarUnavailable) || transport.IsTransient(err)
}

// Prefetch starts an asynchronous fetch of the line holding obj[elem].field
// (§4.5 adaptive prefetching). The issuing thread pays only the posting
// cost; a later access to the line waits for the remainder, if any.
func (r *Runtime) Prefetch(clk *sim.Clock, name string, elem int64, field ir.Field) error {
	o, ok := r.objs[name]
	if !ok {
		return fmt.Errorf("rt: prefetch of unknown object %q", name)
	}
	return r.PrefetchH(clk, Handle{o}, elem, field)
}

// PrefetchH is Prefetch on a handle. A line already resident, or on its
// way, has its recency refreshed (cache.Section.Touch): the prefetch
// announces an access, and the line must not age out before it.
func (r *Runtime) PrefetchH(clk *sim.Clock, h Handle, elem int64, field ir.Field) error {
	o := h.o
	if elem < 0 || elem >= o.decl.Count {
		// Speculative prefetch past the end: drop silently, but count it —
		// dropped proposals are the denominator policy accuracy needs.
		if o.place.Kind == PlaceSection {
			r.secs[o.place.Section].dropped()
		}
		return nil
	}
	switch o.place.Kind {
	case PlaceLocal:
		return nil
	case PlaceSwap:
		// A swap-placed object's prefetch is a page advisory, as in
		// PrefetchBatch; Bind gave it a swap cache.
		addr := o.farBase + uint64(elem)*uint64(o.decl.ElemBytes) + uint64(field.Offset)
		return r.swapPrefetchFars(clk, []uint64{addr})
	}
	s := r.secs[o.place.Section]
	addr := o.farBase + uint64(elem)*uint64(o.decl.ElemBytes) + uint64(field.Offset)
	tag := cache.AlignDown(addr, s.spec.Cache.LineBytes)
	switch s.locate(tag) {
	case lineHere:
		s.sec.Touch(tag)
		return nil
	case lineParked:
		r.unpark(clk, s, tag)
		return nil
	}
	clk.Advance(r.cfg.Net.PerMessageOverhead)
	l, recovered, err := r.claim(clk, s, addr)
	if err != nil || recovered {
		return err
	}
	post := clk.Now()
	done, err := r.fetch(post, s, o, l)
	if err != nil {
		if prefetchFailed(err) {
			s.dropped()
			return nil
		}
		return err
	}
	s.speculate(l, done)
	if r.trc != nil {
		r.trc.Span(post, done, "rt", "prefetch", trace.S("obj", o.decl.Name))
	}
	return nil
}

// BatchEntry names one piece of a batched prefetch.
type BatchEntry struct {
	Obj   string
	Elem  int64
	Field ir.Field
	// H, when set, is Obj's handle: PrefetchBatch skips the lookup by name.
	H Handle
}

// PrefetchBatch fetches several lines — possibly of different objects and
// sections — in a single doorbell-batched chain of one-sided reads (§4.5
// data access batching). The issuing thread pays one posting cost for the
// whole chain; each line is tagged in-flight with its own arrival instant
// (the reply streams pieces in request order), so a later access waits only
// for its own line, not for the chain's tail. A line already resident has
// its recency refreshed, as under PrefetchH. Entries whose object lives on
// the paged plane become one page advisory doorbell, charged by the same
// rule: the posting cost of the pages it puts on the wire.
func (r *Runtime) PrefetchBatch(clk *sim.Clock, entries []BatchEntry) error {
	lines, swapFars := r.batchLines[:0], r.swapFars[:0]
	for _, e := range entries {
		o := e.H.o
		if o == nil {
			var ok bool
			if o, ok = r.objs[e.Obj]; !ok {
				return fmt.Errorf("rt: batch prefetch of unknown object %q", e.Obj)
			}
		}
		if o.place.Kind != PlaceSection {
			if o.place.Kind == PlaceSwap && r.swapC != nil && e.Elem >= 0 && e.Elem < o.decl.Count {
				swapFars = append(swapFars,
					o.farBase+uint64(e.Elem)*uint64(o.decl.ElemBytes)+uint64(e.Field.Offset))
			}
			continue
		}
		s := r.secs[o.place.Section]
		if e.Elem < 0 || e.Elem >= o.decl.Count {
			s.dropped()
			continue
		}
		addr := o.farBase + uint64(e.Elem)*uint64(o.decl.ElemBytes) + uint64(e.Field.Offset)
		tag := cache.AlignDown(addr, s.spec.Cache.LineBytes)
		switch s.locate(tag) {
		case lineHere:
			s.sec.Touch(tag)
			continue
		case lineParked:
			r.unpark(clk, s, tag)
			continue
		}
		l, recovered, err := r.claim(clk, s, addr)
		if err != nil {
			return err
		}
		if !recovered {
			lines = append(lines, claimed{s: s, o: o, l: l, tag: tag})
		}
	}
	r.batchLines, r.swapFars = lines, swapFars
	if len(swapFars) > 0 {
		pnos := r.swapPages(swapFars)
		clk.Advance(r.cfg.Net.VectoredPostCost(r.swapC.AbsentPages(pnos)))
		if err := r.swapAdvise(clk, pnos); err != nil {
			return err
		}
	}
	if len(lines) == 0 {
		return nil
	}
	clk.Advance(r.cfg.Net.VectoredPostCost(len(lines)))
	post := clk.Now()
	done, err := r.land(post, lines)
	if err != nil {
		if prefetchFailed(err) {
			return nil
		}
		return err
	}
	if r.trc != nil {
		r.trc.Span(post, done, "rt", "prefetch.batch", trace.I("lines", int64(len(lines))))
	}
	return nil
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

// EvictHint marks obj[elem]'s line evictable and flushes it asynchronously
// if dirty (§4.5 eviction hints).
func (r *Runtime) EvictHint(clk *sim.Clock, name string, elem int64) error {
	o, ok := r.objs[name]
	if !ok {
		return fmt.Errorf("rt: evict hint for unknown object %q", name)
	}
	return r.EvictHintH(clk, Handle{o}, elem)
}

// EvictHintH is EvictHint on a handle.
func (r *Runtime) EvictHintH(clk *sim.Clock, h Handle, elem int64) error {
	o := h.o
	if o.place.Kind != PlaceSection || elem < 0 || elem >= o.decl.Count {
		return nil
	}
	s := r.secs[o.place.Section]
	addr := o.farBase + uint64(elem)*uint64(o.decl.ElemBytes)
	l, resident := s.sec.Peek(addr)
	if !resident {
		return nil
	}
	s.sec.MarkEvictable(addr)
	if l.Dirty {
		if s.wbq == nil {
			clk.Advance(r.cfg.Net.PerMessageOverhead)
		}
		// The line stays resident, so its bytes park in a spare buffer.
		buf := s.sec.Spare()
		copy(buf, l.Data)
		if _, err := r.wbqEnqueue(clk, s, l.Tag, buf); err != nil {
			return err
		}
		l.Dirty = false
	}
	return nil
}

// SettleAsync marks all in-flight prefetches and write-backs complete
// without advancing any clock — a harness utility for tests that reuse a
// runtime across independent timing frames. (The multithreaded drivers no
// longer need it: interleaved threads share one virtual-time frame, so
// asynchronous completion instants remain meaningful across threads.)
func (r *Runtime) SettleAsync() {
	for _, s := range r.secs {
		s.settleReady()
	}
	if r.swapC != nil {
		r.swapC.SettleAsync()
	}
	r.lastFlush = 0
}

// Fence blocks until every in-flight prefetch and asynchronous write-back
// has completed — including lines still parked in the write-back queues,
// which are drained here (a drain failure leaves them parked and is surfaced
// by the next flush, so Fence itself stays infallible).
func (r *Runtime) Fence(clk *sim.Clock) {
	start := clk.Now()
	for _, s := range r.secs {
		_, _ = r.drainWbq(clk, s)
	}
	latest := r.lastFlush
	for _, s := range r.secs {
		latest = s.latestReady(latest)
	}
	clk.AdvanceTo(latest)
	r.trc.Span(start, clk.Now(), "rt", "fence")
}

// FlushObject writes back and drops every cached line of the object,
// blocking until far memory is up to date. The compiler emits this before
// offloaded calls that read the object (§4.8) and at section lifetime ends.
func (r *Runtime) FlushObject(clk *sim.Clock, name string) error {
	o, ok := r.objs[name]
	if !ok {
		return fmt.Errorf("rt: flush of unknown object %q", name)
	}
	switch o.place.Kind {
	case PlaceLocal:
		return nil
	case PlaceSwap:
		if r.cfg.SwapCompress {
			r.setCodec(codec.ByteRun)
			defer r.setCodec(codec.None)
		}
		return r.swapC.FlushAll(clk)
	}
	start0 := clk.Now()
	s := r.secs[o.place.Section]
	// With the queue on, every dirty line parks so the drain below pushes
	// the whole flush as one coalesced vectored write; with it off, the
	// flush waits for the last of the immediate write-backs.
	last := clk.Now()
	for _, l := range s.linesIn(o.lineRange(s)) {
		done, err := r.drop(clk, s, l.Tag)
		if err != nil {
			return err
		}
		if done > last {
			last = done
		}
	}
	// A flush is a synchronization point: everything parked in the
	// section's queue — this object's lines and earlier evictions — must
	// reach far memory before the flush returns.
	done, err := r.drainWbq(clk, s)
	if err != nil {
		return err
	}
	if done > last {
		last = done
	}
	clk.AdvanceTo(last)
	if r.trc != nil {
		r.trc.Span(start0, clk.Now(), "rt", "flush.obj", trace.S("obj", name))
	}
	return nil
}

// Release ends an object's cached lifetime (§4.1): every line is dropped;
// dirty lines are written back asynchronously (the issuing thread pays only
// posting costs). Swap- and local-placed objects are left alone — the swap
// section has its own global reclamation.
func (r *Runtime) Release(clk *sim.Clock, name string) error {
	o, ok := r.objs[name]
	if !ok {
		return fmt.Errorf("rt: release of unknown object %q", name)
	}
	return r.ReleaseH(clk, Handle{o})
}

// ReleaseH is Release on a handle.
func (r *Runtime) ReleaseH(clk *sim.Clock, h Handle) error {
	o := h.o
	if o.place.Kind != PlaceSection {
		return nil
	}
	s := r.secs[o.place.Section]
	for _, l := range s.linesIn(o.lineRange(s)) {
		if l.Dirty && s.wbq == nil {
			clk.Advance(r.cfg.Net.PerMessageOverhead)
		}
		if _, err := r.drop(clk, s, l.Tag); err != nil {
			return err
		}
	}
	return nil
}

// FlushAll flushes every section and the swap pool; used at program end so
// DumpObject sees final data, and by multithreaded barriers.
func (r *Runtime) FlushAll(clk *sim.Clock) error {
	flushStart := clk.Now()
	// Flush in name order: write-back order decides how transfers queue on
	// the shared link, and map iteration order would make final sim times
	// run-dependent.
	names := make([]string, 0, len(r.objs))
	for name, o := range r.objs {
		if o.place.Kind == PlaceSection {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if err := r.FlushObject(clk, name); err != nil {
			return err
		}
	}
	if r.swapC != nil {
		if r.cfg.SwapCompress {
			r.setCodec(codec.ByteRun)
		}
		err := r.swapC.FlushAll(clk)
		if r.cfg.SwapCompress {
			r.setCodec(codec.None)
		}
		if err != nil {
			return err
		}
	}
	// Ordering under faults: the per-section write-back queues drain first
	// (their lines may land in the transport's degraded-mode overlay), and
	// only then is the overlay flushed — so everything reaches far memory
	// before DumpObject bypasses the cache to read it.
	if _, err := r.drainAllWbq(clk); err != nil {
		return err
	}
	done, err := r.tr.Flush(clk.Now())
	if err != nil {
		return err
	}
	clk.AdvanceTo(done)
	r.Fence(clk)
	r.trc.Span(flushStart, clk.Now(), "rt", "flush.all")
	return nil
}

// rebuildOwnerIndex rebuilds the farBase-sorted index of section-placed
// objects that ownerOf searches. Bind calls it after placement; tests that
// relocate objects directly must call it again.
func (r *Runtime) rebuildOwnerIndex() {
	r.byFar = r.byFar[:0]
	for _, o := range r.objs {
		if o.place.Kind == PlaceSection {
			r.byFar = append(r.byFar, o)
		}
	}
	sort.Slice(r.byFar, func(i, j int) bool {
		if r.byFar[i].farBase != r.byFar[j].farBase {
			return r.byFar[i].farBase < r.byFar[j].farBase
		}
		return r.byFar[i].decl.Name < r.byFar[j].decl.Name
	})
}

// ownerOf finds the section-placed object whose allocation covers a far
// address. An object owns [farBase, farBase+size), and additionally claims
// the aligned-down head of its first line when farBase is not line-aligned —
// its dirty first line carries that tag. When that head overlaps the
// previous object's tail, exact containment wins: resolution is a binary
// search over the farBase-sorted index, so the answer never depends on map
// iteration order.
func (r *Runtime) ownerOf(far uint64) *objectRT {
	i := sort.Search(len(r.byFar), func(i int) bool { return r.byFar[i].farBase > far })
	if i > 0 {
		o := r.byFar[i-1]
		if far < o.farBase+uint64(o.decl.SizeBytes()) {
			return o
		}
	}
	if i < len(r.byFar) {
		o := r.byFar[i]
		if far >= cache.AlignDown(o.farBase, r.secs[o.place.Section].spec.Cache.LineBytes) {
			return o
		}
	}
	return nil
}
