// Package swap implements the page-granular swap cache (§5.3 "swap-based
// cache section"): a 4 KB-page local pool over far memory with demand
// faults, an approximate global LRU (active/inactive lists, as in Linux and
// the paper), asynchronous dirty write-back, and a pluggable
// prefetch.Policy.
//
// Three systems share this substrate: Mira's generic swap section (the
// initial iteration and the fallback for pre-compiled library code), the
// FastSwap baseline (readahead policy, fast fault path), and the Leap
// baseline (majority-trend policy, a fault path its Config makes costlier).
package swap

import (
	"errors"
	"fmt"
	"slices"

	"mira/internal/cache"
	"mira/internal/netmodel"
	"mira/internal/prefetch"
	"mira/internal/sim"
	"mira/internal/trace"
	"mira/internal/transport"
)

// PageBytes is the swap granularity, matching the OS page size (§5.3).
const PageBytes = 4096

// Config parameterizes a swap cache.
type Config struct {
	// PoolBytes is the local page-pool budget; the page count is
	// PoolBytes/PageBytes, minimum 1.
	PoolBytes int64
	// MajorFaultOverhead is the CPU cost of the fault path (userfaultfd
	// event, mapping setup) excluding the network fetch.
	MajorFaultOverhead sim.Duration
	// MinorFaultOverhead is the cost of mapping an already-prefetched
	// page on first touch.
	MinorFaultOverhead sim.Duration
	// HitOverhead is the per-access software overhead once a page is
	// mapped. For a true swap system this is zero (the MMU resolves
	// accesses natively); Mira's user-space swap charges nothing either,
	// matching the paper's "native memory access intact" profiling note.
	HitOverhead sim.Duration
	// BatchPrefetch issues each fault's prefetch candidates as one
	// doorbell-batched gather instead of one read per page: the round trip
	// and per-message overhead are paid once for the whole batch, and each
	// page becomes usable as its bytes arrive in the reply stream.
	BatchPrefetch bool
	// Net is the interconnect model used to stagger per-page readiness
	// inside a batched gather; zero value disables staggering (every page
	// in a batch becomes ready at chain completion).
	Net netmodel.Config
}

// Pages reports how many page frames the pool holds.
func (c Config) Pages() int {
	n := int(c.PoolBytes / PageBytes)
	if n < 1 {
		n = 1
	}
	return n
}

// DefaultConfig returns a FastSwap-calibrated fault path.
func DefaultConfig(poolBytes int64) Config {
	return Config{
		PoolBytes:          poolBytes,
		MajorFaultOverhead: 4500 * sim.Nanosecond,
		MinorFaultOverhead: 1000 * sim.Nanosecond,
	}
}

// Stats counts swap events.
type Stats struct {
	Accesses     int64
	MajorFaults  int64
	MinorFaults  int64
	PagesFetched int64 // demand + prefetch
	Prefetches   int64
	PrefetchUsed int64 // prefetched pages that were touched before eviction
	// PrefetchUseless counts prefetched pages evicted before any touch;
	// PrefetchDropped counts prefetcher proposals the cache could not honor
	// (out of range, or the advisory fetch failed under faults);
	// PrefetchLate counts used prefetches whose bytes were still in flight
	// at first touch (the minor fault stalled on the fetch tail).
	PrefetchUseless int64
	PrefetchDropped int64
	PrefetchLate    int64
	Evictions       int64
	Writebacks      int64
}

// page is one frame of the pool and the page it currently holds. The pool
// is an arena: a frame (this struct and its 4 KiB buffer) is made on first
// use, up to the capacity, and from then on only recycled, so a warm cache
// allocates nothing on any path.
type page struct {
	no       int64
	data     []byte // the frame's buffer, sliced to the page's size
	dirty    bool
	prefetch bool     // arrived via prefetch and not yet touched
	readyAt  sim.Time // when its fetch completes
	// gen counts the frame's tenancies: it tells a batch placeholder from
	// the frame's next tenant when a later allocation of the same batch
	// evicted the placeholder.
	gen uint32
}

// placeholder names one page of a batched prefetch waiting for its bytes.
type placeholder struct {
	frame int32
	gen   uint32
}

// Cache is a swap cache over one contiguous far-memory region.
type Cache struct {
	cfg      Config
	tr       transport.Link
	base     uint64  // far address of page 0
	length   int64   // region bytes
	capacity int     // max resident pages
	frames   []*page // the arena; resident + free == len(frames) <= capacity
	free     []int32 // frames holding no page
	frameOf  []int32 // page number -> frame, -1 when not resident
	lru      *cache.TwoList
	pf       prefetch.Policy
	stats    Stats
	// faultsByPage records major-fault counts per page (per-object miss
	// attribution for the evaluation's Fig. 8); made on the first fault.
	faultsByPage []int64
	// pinned is the frame of the in-flight demand page (-1: none), which
	// the prefetches issued on the same fault must not evict.
	pinned int32
	// Scratch of one advisory issue, kept so that issuing allocates nothing:
	// the prefetcher's proposals, then the survivors of the filter.
	props []int64
	cands []int64
	batch []placeholder
	addrs []uint64
	sizes []int
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

// New builds a swap cache covering [base, base+length) of far memory, with
// pf as its prefetch policy (nil: none).
func New(cfg Config, tr transport.Link, base uint64, length int64, pf prefetch.Policy) (*Cache, error) {
	if cfg.PoolBytes <= 0 {
		return nil, fmt.Errorf("swap: PoolBytes must be positive, got %d", cfg.PoolBytes)
	}
	if length <= 0 {
		return nil, fmt.Errorf("swap: region length must be positive, got %d", length)
	}
	capacity := cfg.Pages()
	c := &Cache{
		cfg:      cfg,
		tr:       tr,
		base:     base,
		length:   length,
		capacity: capacity,
		lru:      cache.NewTwoList(capacity),
		pinned:   -1,
	}
	c.frameOf = make([]int32, c.npages())
	for i := range c.frameOf {
		c.frameOf[i] = -1
	}
	c.SetPrefetcher(pf)
	return c, nil
}

// npages reports the number of pages covering the region.
func (c *Cache) npages() int64 { return (c.length + PageBytes - 1) / PageBytes }

// pageOf maps a far address to its page number.
func (c *Cache) pageOf(far uint64) (int64, error) {
	if far < c.base || far >= c.base+uint64(c.length) {
		return 0, fmt.Errorf("swap: address %#x outside region [%#x,+%d)", far, c.base, c.length)
	}
	return int64((far - c.base) / PageBytes), nil
}

// pageSize returns the byte count of page no (the last page may be short).
func (c *Cache) pageSize(no int64) int {
	sz := c.length - no*PageBytes
	if sz > PageBytes {
		sz = PageBytes
	}
	return int(sz)
}

// Read copies len(dst) bytes at far into dst, faulting pages as needed and
// advancing clk by the access cost.
func (c *Cache) Read(clk *sim.Clock, far uint64, dst []byte) error {
	return c.access(clk, far, dst, false)
}

// Write copies src to far (through the page cache; pages become dirty).
func (c *Cache) Write(clk *sim.Clock, far uint64, src []byte) error {
	return c.access(clk, far, src, true)
}

// access walks the affected pages, faulting and copying.
func (c *Cache) access(clk *sim.Clock, far uint64, buf []byte, isWrite bool) error {
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
func (c *Cache) touch(clk *sim.Clock, no int64, fullWrite bool) (*page, error) {
	if i := c.frameOf[no]; i >= 0 {
		p := c.frames[i]
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
			// Stream-maintaining policies top their window back up on
			// the touch instead of waiting for the next major fault.
			if tp, ok := c.pf.(prefetch.StreamTopUp); ok {
				c.props = tp.OnPrefetchedTouch(no, c.props[:0])
				if err := c.issueAdvisory(clk, i, c.props); err != nil {
					return nil, err
				}
			}
		}
		c.lru.Touch(i)
		return p, nil
	}
	// Major fault.
	c.stats.MajorFaults++
	c.cMajor.Inc()
	faultStart := clk.Now()
	if c.faultsByPage == nil {
		c.faultsByPage = make([]int64, c.npages())
	}
	c.faultsByPage[no]++
	if c.lock != nil {
		clk.AdvanceTo(c.lock.Acquire(clk.Now(), c.cfg.MajorFaultOverhead))
	}
	clk.Advance(c.cfg.MajorFaultOverhead)
	// Degraded mode: a store that overwrites the whole page while the
	// circuit breaker is open allocates the page locally instead of
	// stalling on a fetch that cannot succeed.
	noFetch := fullWrite && c.tr.BreakerOpen(clk.Now())
	i, err := c.fetch(clk.Now(), no, false, noFetch)
	if err != nil {
		return nil, err
	}
	p := c.frames[i]
	clk.AdvanceTo(p.readyAt)
	if c.trc != nil {
		c.trc.Span(faultStart, clk.Now(), "swap", "fault.major", trace.I("page", no))
		c.hFaultLat.Observe(int64(clk.Now().Sub(faultStart)))
	}
	if noFetch {
		return p, nil // the far node is unreachable; skip prefetch too
	}

	// Consult the policy after servicing the demand page so its traffic
	// queues behind the demand fetch.
	c.props = c.pf.OnMiss(no, c.props[:0])
	if err := c.issueAdvisory(clk, i, c.props); err != nil {
		return nil, err
	}
	return p, nil
}

// issueAdvisory filters policy proposals and issues the survivors
// (batched when configured). The demand page's frame is pinned throughout:
// prefetch-triggered evictions must not invalidate the page about to be
// handed to the caller.
//
// The policy runs on the runner thread, off the fault path, as on the line
// plane (rt's policyIssue): its PerMissOverhead is charged by issuing the
// advisory fetch later — slower predictors land their prefetches later
// (and count Late more often) — never by stalling the demand access.
func (c *Cache) issueAdvisory(clk *sim.Clock, pin int32, proposals []int64) error {
	c.pinned = pin
	cands := c.cands[:0]
	for _, pno := range proposals {
		if pno < 0 || pno >= c.npages() {
			c.stats.PrefetchDropped++
			c.cPfDropped.Inc()
			continue
		}
		if c.frameOf[pno] >= 0 {
			continue
		}
		cands = append(cands, pno)
	}
	c.cands = cands
	var err error
	at := clk.Now().Add(c.pf.PerMissOverhead())
	if c.cfg.BatchPrefetch && len(cands) >= 2 {
		err = c.prefetchBatch(at, cands)
	} else {
		err = c.prefetchEach(at, cands)
	}
	c.pinned = -1
	return err
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

// prefetchEach issues one read per candidate page (the unbatched path).
func (c *Cache) prefetchEach(now sim.Time, cands []int64) error {
	for i, pno := range cands {
		if c.frameOf[pno] >= 0 {
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
func (c *Cache) dropCands(n int) {
	c.stats.PrefetchDropped += int64(n)
	c.cPfDropped.Add(int64(n))
}

// prefetchBatch brings every candidate page in with one doorbell-batched
// gather. Page i becomes usable once its bytes have streamed in — chain
// completion minus the wire time of the pages behind it in the reply.
func (c *Cache) prefetchBatch(now sim.Time, cands []int64) error {
	c.batch, c.addrs, c.sizes = c.batch[:0], c.addrs[:0], c.sizes[:0]
	behind := 0
	for _, pno := range cands {
		if c.frameOf[pno] >= 0 {
			continue
		}
		if c.Resident() >= c.capacity {
			if err := c.evictOne(now); err != nil {
				if err == errNoEvictable {
					break // pool too small; gather what we have
				}
				c.dropPlaceholders()
				return err
			}
		}
		i := c.takeFrame(pno, true)
		c.place(i)
		c.batch = append(c.batch, placeholder{frame: i, gen: c.frames[i].gen})
		c.addrs = append(c.addrs, c.base+uint64(pno)*PageBytes)
		c.sizes = append(c.sizes, len(c.frames[i].data))
		behind += len(c.frames[i].data)
	}
	n := int64(len(c.batch))
	if n == 0 {
		return nil
	}
	data, done, err := c.tr.GatherOneSided(now, c.addrs, c.sizes)
	if err != nil {
		// Prefetch is advisory: the placeholder pages hold no data yet, so
		// they must not stay resident looking like valid prefetches.
		c.dropPlaceholders()
		c.dropCands(int(n))
		if errors.Is(err, transport.ErrFarUnavailable) || transport.IsTransient(err) {
			return nil
		}
		return err
	}
	off := 0
	for k, ph := range c.batch {
		behind -= c.sizes[k]
		// A placeholder evicted by a later allocation of this batch has lost
		// its frame, maybe to another page of the batch: its bytes are dropped.
		if p := c.frames[ph.frame]; c.holds(ph) {
			copy(p.data, data[off:off+c.sizes[k]])
			p.readyAt = done
			if c.cfg.Net.BytesPerSecond > 0 {
				p.readyAt = done.Add(-c.cfg.Net.WireTime(behind))
			}
		}
		off += c.sizes[k]
	}
	c.stats.Prefetches += n
	c.cPrefetch.Add(n)
	c.stats.PagesFetched += n
	if c.trc != nil {
		c.trc.Span(now, done, "swap", "prefetch.batch", trace.I("pages", n))
	}
	return nil
}

// holds reports whether ph's frame still holds the page it was taken for.
func (c *Cache) holds(ph placeholder) bool {
	p := c.frames[ph.frame]
	return p.gen == ph.gen && c.frameOf[p.no] == ph.frame
}

// dropPlaceholders removes the batch's placeholder pages that never received
// data, skipping those a later allocation of the same batch already evicted.
func (c *Cache) dropPlaceholders() {
	for _, ph := range c.batch {
		if c.holds(ph) {
			c.release(ph.frame)
		}
	}
}

// takeFrame readies a free frame for page no, making one if none was ever
// vacated (the callers have checked that the pool has room). The buffer is
// sliced to the page's size — the region's last page may be short, and a
// frame's previous tenant must not leak into its write-back — and is NOT
// cleared: every caller overwrites all of it or clears it itself.
func (c *Cache) takeFrame(no int64, isPrefetch bool) int32 {
	var i int32
	if n := len(c.free); n > 0 {
		i = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		i = int32(len(c.frames))
		c.frames = append(c.frames, &page{data: make([]byte, PageBytes)})
	}
	p := c.frames[i]
	*p = page{no: no, data: p.data[:c.pageSize(no)], prefetch: isPrefetch, gen: p.gen + 1}
	return i
}

// place makes frame i's page resident, at the inactive front.
func (c *Cache) place(i int32) {
	c.frameOf[c.frames[i].no] = i
	c.lru.Insert(i)
}

// release drops frame i's page and frees the frame; its bytes stay intact
// until the frame is taken again.
func (c *Cache) release(i int32) {
	c.lru.Remove(i)
	c.frameOf[c.frames[i].no] = -1
	c.free = append(c.free, i)
}

// fetch brings page no into the pool (evicting as needed) and returns its
// frame. Prefetch fetches do not block the caller; readyAt records
// completion. noFetch allocates the page locally without touching the
// network (degraded full-page write-allocate). When the read fails the
// frame goes back to the free list.
func (c *Cache) fetch(now sim.Time, no int64, isPrefetch, noFetch bool) (int32, error) {
	if c.Resident() >= c.capacity {
		if err := c.evictOne(now); err != nil {
			return -1, err
		}
	}
	i := c.takeFrame(no, isPrefetch)
	p := c.frames[i]
	if noFetch {
		clear(p.data)
		p.readyAt = now
	} else {
		done, err := c.tr.ReadOneSided(now, c.base+uint64(no)*PageBytes, p.data)
		if err != nil {
			c.free = append(c.free, i)
			return -1, err
		}
		p.readyAt = done
		c.stats.PagesFetched++
	}
	c.place(i)
	return i, nil
}

// errNoEvictable reports that every page in the pool is pinned — only
// possible when a prefetch races the demand page in a tiny pool.
var errNoEvictable = fmt.Errorf("swap: no evictable page")

// evictOne drops the approximate-LRU page (cache.TwoList; the pinned demand
// page is passed over), writing it back asynchronously if dirty (write-back
// consumes link bandwidth but does not block).
func (c *Cache) evictOne(now sim.Time) error {
	c.lru.Refill()
	i := int32(-1)
	for _, l := range [...]cache.List{cache.Inactive, cache.Active} {
		i = c.lru.Back(l)
		for i >= 0 && i == c.pinned {
			i = c.lru.Prev(i)
		}
		if i >= 0 {
			break
		}
	}
	if i < 0 {
		return errNoEvictable
	}
	p := c.frames[i]
	c.release(i)
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
func (c *Cache) FlushAll(clk *sim.Clock) error {
	// Write back in page order: write-back queueing on the shared link —
	// and so final sim times — must not depend on frame order.
	var last sim.Time
	for no, i := range c.frameOf {
		if i < 0 || !c.frames[i].dirty {
			continue
		}
		done, err := c.tr.WriteOneSided(clk.Now(), c.base+uint64(no)*PageBytes, c.frames[i].data)
		if err != nil {
			return err
		}
		c.stats.Writebacks++
		if done > last {
			last = done
		}
	}
	for i := range c.frames {
		if c.resident(int32(i)) {
			c.release(int32(i))
		}
	}
	clk.AdvanceTo(last)
	return nil
}

// resident reports whether frame i holds a page (a free frame keeps the
// number of the page it held last).
func (c *Cache) resident(i int32) bool { return c.frameOf[c.frames[i].no] == i }

// FaultsInRange reports major faults on pages overlapping [far, far+length).
// The query range is intersected with the region: an empty or disjoint range
// reports zero faults (it must not alias neighboring pages' counts).
func (c *Cache) FaultsInRange(far uint64, length int64) int64 {
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
	for p := first; p <= last && c.faultsByPage != nil; p++ {
		total += c.faultsByPage[p]
	}
	return total
}

// SettleAsync marks every in-flight page fetch complete (simulated-thread
// boundaries; see rt.SettleAsync).
func (c *Cache) SettleAsync() {
	for _, p := range c.frames {
		p.readyAt = 0 // free frames included: taking one resets it anyway
	}
}

// SetTrace attaches the deterministic tracing layer: fault/prefetch/evict
// counters, a fault-latency histogram, and span events on the major-fault
// and batched-prefetch paths. A nil tracer leaves tracing disabled.
func (c *Cache) SetTrace(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	reg := tr.Registry()
	c.trc = tr.Buffer("swap")
	c.cMajor = reg.Counter("swap.fault.major")
	c.cMinor = reg.Counter("swap.fault.minor")
	c.cPrefetch = reg.Counter("swap.prefetch")
	c.cPfUseful = reg.Counter("swap.prefetch.useful")
	c.cPfWaste = reg.Counter("swap.prefetch.useless")
	c.cPfDropped = reg.Counter("swap.prefetch.dropped")
	c.cEvict = reg.Counter("swap.evict")
	c.hFaultLat = reg.Histogram("swap.fault.latency_ns")
}

// SetLock installs a global fault-path serializer shared across simulated
// threads (multithreaded swap baselines).
func (c *Cache) SetLock(l *sim.Serializer) { c.lock = l }

// SetPrefetcher swaps in a page prefetch policy (nil: none). Baselines
// install theirs after the cache exists. A windowed policy has its window
// capped to the pool (prefetch.WindowCapped).
func (c *Cache) SetPrefetcher(pf prefetch.Policy) {
	if pf == nil {
		pf = prefetch.None{}
	}
	if wc, ok := pf.(prefetch.WindowCapped); ok {
		wc.CapWindow(c.capacity)
	}
	c.pf = pf
}

// Resident reports the number of resident pages.
func (c *Cache) Resident() int { return c.lru.Len(cache.Inactive) + c.lru.Len(cache.Active) }

// Capacity reports the pool capacity in pages.
func (c *Cache) Capacity() int { return c.capacity }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// MajorFaults is Stats().MajorFaults without the copy: the profiler's miss
// probe reads it around every access.
func (c *Cache) MajorFaults() int64 { return c.stats.MajorFaults }

// ResetStats zeroes the counters.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Base reports the far address of the region's first byte.
func (c *Cache) Base() uint64 { return c.base }
