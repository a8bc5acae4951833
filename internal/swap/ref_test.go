package swap

// refCache is the swap cache's bookkeeping as it stood before the frame
// arena — map[int64]*list.Element, two container/list lists, a page and a
// 4 KiB buffer allocated per fault — kept verbatim (tracing aside) as the
// reference model of TestDifferentialAgainstReference. It keeps the prefetch
// hooks of its time too, and their two charge sites: a fault-path charge
// (PerFaultOverhead, in the handler) and an issue delay (IssueDelay, on the
// advisory fetch).

import (
	"container/list"
	"errors"
	"fmt"
	"sort"

	"mira/internal/prefetch"
	"mira/internal/sim"
	"mira/internal/trace"
	"mira/internal/transport"
)

// refPrefetcher decides which pages to pull in around a demand fault.
type refPrefetcher interface {
	// OnFault observes a demand fault on page and appends page numbers to
	// prefetch to out, returning the extended slice.
	OnFault(page int64, out []int64) []int64
	// PerFaultOverhead is the extra fault-path cost this prefetcher adds
	// (e.g. Leap's trend detection).
	PerFaultOverhead() sim.Duration
}

// refIssueDelayer is the optional refinement for prefetchers that run off
// the fault path: IssueDelay is added to the advisory fetch's issue time.
type refIssueDelayer interface {
	IssueDelay() sim.Duration
}

// refTouchPrefetcher observes the first touch of a prefetched page (the
// minor fault) and may propose more pages.
type refTouchPrefetcher interface {
	refPrefetcher
	OnPrefetchedTouch(page int64, out []int64) []int64
}

// refNoPrefetch is the zero prefetcher.
type refNoPrefetch struct{}

func (refNoPrefetch) OnFault(_ int64, out []int64) []int64 { return out }
func (refNoPrefetch) PerFaultOverhead() sim.Duration       { return 0 }

// refHooks presents a policy through those hooks, as the installers did
// then: fault is charged in the handler (the Leap baseline's trend
// detection, 0 for a zoo policy), and the policy's PerMissOverhead delays
// the advisory fetch (the zoo's page adapter).
type refHooks struct {
	p     prefetch.Policy
	fault sim.Duration
}

func (h refHooks) OnFault(page int64, out []int64) []int64 { return h.p.OnMiss(page, out) }
func (h refHooks) PerFaultOverhead() sim.Duration          { return h.fault }
func (h refHooks) IssueDelay() sim.Duration                { return h.p.PerMissOverhead() }
func (h refHooks) OnPrefetchedTouch(page int64, out []int64) []int64 {
	if tu, ok := h.p.(prefetch.StreamTopUp); ok {
		return tu.OnPrefetchedTouch(page, out)
	}
	return out
}

type refPage struct {
	no       int64
	data     []byte
	dirty    bool
	prefetch bool     // arrived via prefetch and not yet touched
	readyAt  sim.Time // when its fetch completes
	inActive bool
	resident bool
}

// Cache is a swap cache over one contiguous far-memory region.
type refCache struct {
	cfg      Config
	tr       transport.Link
	base     uint64 // far address of page 0
	length   int64  // region bytes
	capacity int    // max resident pages
	pages    map[int64]*list.Element
	active   *list.List
	inactive *list.List
	pf       refPrefetcher
	stats    Stats
	// faultsByPage records major-fault counts per page (per-object miss
	// attribution for the evaluation's Fig. 8).
	faultsByPage map[int64]int64
	// pinned protects the in-flight demand page from being evicted by
	// the prefetches issued on the same fault.
	pinned *refPage
	// lock, when set, serializes the fault path across simulated
	// threads (the kernel swap lock).
	lock *sim.Serializer

	// Tracing (all nil when disabled — every use is nil-safe).
	trc                 *trace.Buffer
	cMajor, cMinor      *trace.Counter
	cPrefetch, cEvict   *trace.Counter
	cPfUseful, cPfWaste *trace.Counter
	cPfDropped          *trace.Counter
	hFaultLat           *trace.Histogram
}

// New builds a swap cache covering [base, base+length) of far memory.
func newRefCache(cfg Config, tr transport.Link, base uint64, length int64, pf refPrefetcher) (*refCache, error) {
	if cfg.PoolBytes <= 0 {
		return nil, fmt.Errorf("swap: PoolBytes must be positive, got %d", cfg.PoolBytes)
	}
	if length <= 0 {
		return nil, fmt.Errorf("swap: region length must be positive, got %d", length)
	}
	if pf == nil {
		pf = refNoPrefetch{}
	}
	capacity := int(cfg.PoolBytes / PageBytes)
	if capacity < 1 {
		capacity = 1
	}
	return &refCache{
		cfg:      cfg,
		tr:       tr,
		base:     base,
		length:   length,
		capacity: capacity,
		pages:    make(map[int64]*list.Element, capacity),
		active:   list.New(),
		inactive: list.New(),
		pf:       pf,
	}, nil
}

// npages reports the number of pages covering the region.
func (c *refCache) npages() int64 { return (c.length + PageBytes - 1) / PageBytes }

// pageOf maps a far address to its page number.
func (c *refCache) pageOf(far uint64) (int64, error) {
	if far < c.base || far >= c.base+uint64(c.length) {
		return 0, fmt.Errorf("swap: address %#x outside region [%#x,+%d)", far, c.base, c.length)
	}
	return int64((far - c.base) / PageBytes), nil
}

// pageSize returns the byte count of page no (the last page may be short).
func (c *refCache) pageSize(no int64) int {
	sz := c.length - no*PageBytes
	if sz > PageBytes {
		sz = PageBytes
	}
	return int(sz)
}

// Read copies len(dst) bytes at far into dst, faulting pages as needed and
// advancing clk by the access cost.
func (c *refCache) Read(clk *sim.Clock, far uint64, dst []byte) error {
	return c.access(clk, far, dst, false)
}

// Write copies src to far (through the page cache; pages become dirty).
func (c *refCache) Write(clk *sim.Clock, far uint64, src []byte) error {
	return c.access(clk, far, src, true)
}

// access walks the affected pages, faulting and copying.
func (c *refCache) access(clk *sim.Clock, far uint64, buf []byte, isWrite bool) error {
	c.stats.Accesses++
	off := 0
	for off < len(buf) {
		no, err := c.pageOf(far + uint64(off))
		if err != nil {
			return err
		}
		pageOff := int((far + uint64(off) - c.base) % PageBytes)
		fullWrite := isWrite && pageOff == 0 && len(buf)-off >= c.pageSize(no)
		p, err := c.touch(clk, no, fullWrite)
		if err != nil {
			return err
		}
		n := len(p.data) - pageOff
		if n > len(buf)-off {
			n = len(buf) - off
		}
		if n <= 0 {
			return fmt.Errorf("swap: access [%#x,+%d) overruns region", far, len(buf))
		}
		if isWrite {
			copy(p.data[pageOff:], buf[off:off+n])
			p.dirty = true
		} else {
			copy(buf[off:off+n], p.data[pageOff:])
		}
		clk.Advance(c.cfg.HitOverhead)
		off += n
	}
	return nil
}

// touch ensures page no is resident and mapped, charging fault costs.
// fullWrite marks an access that will overwrite the whole page.
func (c *refCache) touch(clk *sim.Clock, no int64, fullWrite bool) (*refPage, error) {
	if el, ok := c.pages[no]; ok {
		p := el.Value.(*refPage)
		if p.prefetch {
			// First touch of a prefetched page: minor fault. Wait
			// for the in-flight fetch if it has not landed yet.
			c.stats.MinorFaults++
			c.cMinor.Inc()
			c.stats.PrefetchUsed++
			c.cPfUseful.Inc()
			if p.readyAt > clk.Now() {
				c.stats.PrefetchLate++
			}
			clk.AdvanceTo(p.readyAt)
			clk.Advance(c.cfg.MinorFaultOverhead)
			p.prefetch = false
			// Stream-maintaining prefetchers top their window back up on
			// the touch instead of waiting for the next major fault.
			if tp, ok := c.pf.(refTouchPrefetcher); ok {
				if err := c.issueAdvisory(clk, p, tp.OnPrefetchedTouch(no, nil)); err != nil {
					return nil, err
				}
			}
		}
		c.promote(el)
		return p, nil
	}
	// Major fault.
	c.stats.MajorFaults++
	c.cMajor.Inc()
	faultStart := clk.Now()
	if c.faultsByPage == nil {
		c.faultsByPage = make(map[int64]int64)
	}
	c.faultsByPage[no]++
	if c.lock != nil {
		clk.AdvanceTo(c.lock.Acquire(clk.Now(), c.cfg.MajorFaultOverhead))
	}
	clk.Advance(c.cfg.MajorFaultOverhead)
	clk.Advance(c.pf.PerFaultOverhead())
	// Degraded mode: a store that overwrites the whole page while the
	// circuit breaker is open allocates the page locally instead of
	// stalling on a fetch that cannot succeed.
	noFetch := fullWrite && c.tr.BreakerOpen(clk.Now())
	p, err := c.fetch(clk.Now(), no, false, noFetch)
	if err != nil {
		return nil, err
	}
	clk.AdvanceTo(p.readyAt)
	if c.trc != nil {
		c.trc.Span(faultStart, clk.Now(), "swap", "fault.major", trace.I("page", no))
		c.hFaultLat.Observe(int64(clk.Now().Sub(faultStart)))
	}
	if noFetch {
		return p, nil // the far node is unreachable; skip prefetch too
	}

	// Consult the prefetcher after servicing the demand page so its
	// traffic queues behind the demand fetch.
	if err := c.issueAdvisory(clk, p, c.pf.OnFault(no, nil)); err != nil {
		return nil, err
	}
	return p, nil
}

// issueAdvisory filters prefetcher proposals and issues the survivors
// (batched when configured). The demand page p is pinned throughout:
// prefetch-triggered evictions must not invalidate the page about to be
// handed to the caller.
//
// A prefetcher that implements refIssueDelayer runs its bookkeeping on the
// runner thread, off the fault path: the delay is charged by issuing the
// advisory fetch later — slower predictors land their prefetches later
// (and count Late more often) — never by stalling the demand access.
func (c *refCache) issueAdvisory(clk *sim.Clock, p *refPage, proposals []int64) error {
	c.pinned = p
	var cands []int64
	for _, pno := range proposals {
		if pno < 0 || pno >= c.npages() {
			c.stats.PrefetchDropped++
			c.cPfDropped.Inc()
			continue
		}
		if _, ok := c.pages[pno]; ok {
			continue
		}
		cands = append(cands, pno)
	}
	var err error
	at := clk.Now()
	if d, ok := c.pf.(refIssueDelayer); ok {
		at = at.Add(d.IssueDelay())
	}
	if c.cfg.BatchPrefetch && len(cands) >= 2 {
		err = c.prefetchBatch(at, cands)
	} else {
		err = c.prefetchEach(at, cands)
	}
	c.pinned = nil
	return err
}

// prefetchEach issues one read per candidate page (the unbatched path).
func (c *refCache) prefetchEach(now sim.Time, cands []int64) error {
	for i, pno := range cands {
		if _, ok := c.pages[pno]; ok {
			continue
		}
		if _, err := c.fetch(now, pno, true, false); err != nil {
			if err == errNoEvictable {
				c.dropCands(len(cands) - i)
				return nil // pool too small to prefetch into
			}
			if errors.Is(err, transport.ErrFarUnavailable) || transport.IsTransient(err) {
				c.dropCands(len(cands) - i)
				return nil // prefetch is advisory: give up under faults
			}
			return err
		}
		c.stats.Prefetches++
		c.cPrefetch.Inc()
	}
	return nil
}

// dropCands charges n prefetcher proposals that were abandoned before any
// data landed (advisory fetch failed, or no evictable slot).
func (c *refCache) dropCands(n int) {
	c.stats.PrefetchDropped += int64(n)
	c.cPfDropped.Add(int64(n))
}

// prefetchBatch brings every candidate page in with one doorbell-batched
// gather. Page i becomes usable once its bytes have streamed in — chain
// completion minus the wire time of the pages behind it in the reply.
func (c *refCache) prefetchBatch(now sim.Time, cands []int64) error {
	var ps []*refPage
	var addrs []uint64
	var sizes []int
	for _, pno := range cands {
		if _, ok := c.pages[pno]; ok {
			continue
		}
		if len(c.pages) >= c.capacity {
			if err := c.evictOne(now); err != nil {
				if err == errNoEvictable {
					break // pool too small; gather what we have
				}
				c.dropPages(ps)
				return err
			}
		}
		p := &refPage{no: pno, data: make([]byte, c.pageSize(pno)), prefetch: true, resident: true}
		c.pages[pno] = c.inactive.PushFront(p)
		ps = append(ps, p)
		addrs = append(addrs, c.base+uint64(pno)*PageBytes)
		sizes = append(sizes, len(p.data))
	}
	if len(ps) == 0 {
		return nil
	}
	data, done, err := c.tr.GatherOneSided(now, addrs, sizes)
	if err != nil {
		// Prefetch is advisory: the placeholder pages hold no data yet, so
		// they must not stay resident looking like valid prefetches.
		c.dropPages(ps)
		c.dropCands(len(ps))
		if errors.Is(err, transport.ErrFarUnavailable) || transport.IsTransient(err) {
			return nil
		}
		return err
	}
	suffix := 0
	readies := make([]sim.Time, len(ps))
	for i := len(ps) - 1; i >= 0; i-- {
		readies[i] = done
		if c.cfg.Net.BytesPerSecond > 0 {
			readies[i] = done.Add(-c.cfg.Net.WireTime(suffix))
		}
		suffix += sizes[i]
	}
	off := 0
	for i, p := range ps {
		copy(p.data, data[off:off+sizes[i]])
		off += sizes[i]
		p.readyAt = readies[i]
	}
	c.stats.Prefetches += int64(len(ps))
	c.cPrefetch.Add(int64(len(ps)))
	c.stats.PagesFetched += int64(len(ps))
	if c.trc != nil {
		c.trc.Span(now, done, "swap", "prefetch.batch", trace.I("pages", int64(len(ps))))
	}
	return nil
}

// dropPages removes batch placeholder pages that never received data. Pages
// already evicted by a later allocation in the same batch are skipped.
func (c *refCache) dropPages(ps []*refPage) {
	for _, p := range ps {
		el, ok := c.pages[p.no]
		if !ok || el.Value.(*refPage) != p {
			continue
		}
		if p.inActive {
			c.active.Remove(el)
		} else {
			c.inactive.Remove(el)
		}
		delete(c.pages, p.no)
		p.resident = false
	}
}

// fetch brings page no into the pool (evicting as needed) and returns it.
// Prefetch fetches do not block the caller; readyAt records completion.
// noFetch allocates the page locally without touching the network (degraded
// full-page write-allocate).
func (c *refCache) fetch(now sim.Time, no int64, isPrefetch, noFetch bool) (*refPage, error) {
	if len(c.pages) >= c.capacity {
		if err := c.evictOne(now); err != nil {
			return nil, err
		}
	}
	sz := c.pageSize(no)
	p := &refPage{no: no, data: make([]byte, sz), prefetch: isPrefetch, resident: true}
	if noFetch {
		p.readyAt = now
	} else {
		done, err := c.tr.ReadOneSided(now, c.base+uint64(no)*PageBytes, p.data)
		if err != nil {
			return nil, err
		}
		p.readyAt = done
		c.stats.PagesFetched++
	}
	c.pages[no] = c.inactive.PushFront(p)
	return p, nil
}

// promote implements the two-list LRU: touched inactive pages move to the
// active list; active pages move to its front. As in Linux, the active list
// is bounded to half the pool — otherwise streamed-once pages clog it and
// evictions cannibalize prefetched pages before their first touch.
func (c *refCache) promote(el *list.Element) {
	p := el.Value.(*refPage)
	if p.inActive {
		c.active.MoveToFront(el)
		return
	}
	c.inactive.Remove(el)
	p.inActive = true
	c.pages[p.no] = c.active.PushFront(p)
	for c.active.Len() > c.capacity/2 {
		tail := c.active.Back()
		tp := tail.Value.(*refPage)
		c.active.Remove(tail)
		tp.inActive = false
		c.pages[tp.no] = c.inactive.PushBack(tp)
	}
}

// evictOne drops the approximate-LRU page, writing it back asynchronously
// if dirty (write-back consumes link bandwidth but does not block).
func (c *refCache) evictOne(now sim.Time) error {
	if c.inactive.Len() == 0 {
		if tail := c.active.Back(); tail != nil {
			p := tail.Value.(*refPage)
			c.active.Remove(tail)
			p.inActive = false
			c.pages[p.no] = c.inactive.PushBack(p)
		}
	}
	el := c.inactive.Back()
	for el != nil && el.Value.(*refPage) == c.pinned {
		el = el.Prev()
	}
	if el == nil {
		el = c.active.Back()
		for el != nil && el.Value.(*refPage) == c.pinned {
			el = el.Prev()
		}
	}
	if el == nil {
		return errNoEvictable
	}
	p := el.Value.(*refPage)
	if p.inActive {
		c.active.Remove(el)
	} else {
		c.inactive.Remove(el)
	}
	delete(c.pages, p.no)
	p.resident = false
	c.stats.Evictions++
	c.cEvict.Inc()
	if p.prefetch {
		// Fetched speculatively, evicted before any touch: wasted pull.
		c.stats.PrefetchUseless++
		c.cPfWaste.Inc()
	}
	if p.dirty {
		c.stats.Writebacks++
		if _, err := c.tr.WriteOneSided(now, c.base+uint64(p.no)*PageBytes, p.data); err != nil {
			return err
		}
	}
	return nil
}

// FlushAll writes every dirty resident page back and drops all pages,
// blocking clk until the last write-back lands. Used at program end and
// before offloaded calls.
func (c *refCache) FlushAll(clk *sim.Clock) error {
	// Write back in page order: map iteration order would make write-back
	// queueing on the shared link — and so final sim times — run-dependent.
	nos := make([]int64, 0, len(c.pages))
	for no := range c.pages {
		nos = append(nos, no)
	}
	sort.Slice(nos, func(i, j int) bool { return nos[i] < nos[j] })
	var last sim.Time
	for _, no := range nos {
		p := c.pages[no].Value.(*refPage)
		if p.dirty {
			done, err := c.tr.WriteOneSided(clk.Now(), c.base+uint64(no)*PageBytes, p.data)
			if err != nil {
				return err
			}
			c.stats.Writebacks++
			if done > last {
				last = done
			}
		}
	}
	c.pages = make(map[int64]*list.Element, c.capacity)
	c.active.Init()
	c.inactive.Init()
	clk.AdvanceTo(last)
	return nil
}

// FaultsInRange reports major faults on pages overlapping [far, far+length).
// The query range is intersected with the region: an empty or disjoint range
// reports zero faults (it must not alias neighboring pages' counts).
func (c *refCache) FaultsInRange(far uint64, length int64) int64 {
	if length <= 0 {
		return 0
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
		return 0
	}
	first := int64((lo - c.base) / PageBytes)
	last := int64((hi - 1 - c.base) / PageBytes)
	var total int64
	for p := first; p <= last; p++ {
		total += c.faultsByPage[p]
	}
	return total
}

// SettleAsync marks every in-flight page fetch complete (simulated-thread
// boundaries; see rt.SettleAsync).
func (c *refCache) SettleAsync() {
	for _, el := range c.pages {
		el.Value.(*refPage).readyAt = 0
	}
}

// SetLock installs a global fault-path serializer shared across simulated
// threads (multithreaded swap baselines).
func (c *refCache) SetLock(l *sim.Serializer) { c.lock = l }

// SetPrefetcher swaps in a page prefetcher (baselines install theirs after
// the cache exists; Mira's planner installs pointer-following prefetch for
// swap-placed indirect objects).
func (c *refCache) SetPrefetcher(pf refPrefetcher) {
	if pf == nil {
		pf = refNoPrefetch{}
	}
	c.pf = pf
}

// Resident reports the number of resident pages.
func (c *refCache) Resident() int { return len(c.pages) }

// Capacity reports the pool capacity in pages.
func (c *refCache) Capacity() int { return c.capacity }

// Stats returns a copy of the counters.
func (c *refCache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters.
func (c *refCache) ResetStats() { c.stats = Stats{} }

// Base reports the far address of the region's first byte.
func (c *refCache) Base() uint64 { return c.base }

// PrefetchPages issues an advisory fetch for the given page numbers, exactly
// as a prefetcher proposal would (out-of-range and resident pages dropped,
// batch gather when configured). Callers outside the fault path — compiled
// prefetch statements of swap-placed objects — use it to turn their hints
// into page advisories.
func (c *refCache) PrefetchPages(clk *sim.Clock, pnos []int64) error {
	return c.issueAdvisory(clk, nil, pnos)
}
