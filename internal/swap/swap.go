// Package swap implements the page-granular swap cache (§5.3 "swap-based
// cache section"): a 4 KB-page local pool over far memory with demand
// faults, asynchronous dirty write-back, and a pluggable prefetch.Policy.
// The pool is one fully-associative cache.Section of 4 KiB lines, so slots,
// victim choice (the active/inactive approximate LRU of Linux and the paper)
// and recycling across sessions are internal/cache's; this package adds the
// fault path, the advisory fetches and the fault statistics.
//
// Three systems share this substrate: Mira's generic swap section (the
// initial iteration and the fallback for pre-compiled library code), the
// FastSwap baseline (readahead policy, fast fault path), and the Leap
// baseline (majority-trend policy, a fault path its Config makes costlier).
package swap

import (
	"cmp"
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

// Pages reports how many pages the pool holds.
func (c Config) Pages() int { return max(int(c.PoolBytes/PageBytes), 1) }

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
	// Prefetch counts advisory pages as every line section does: Useful
	// were touched before eviction (Late when their bytes were still in
	// flight at that touch), Useless evicted untouched, and Dropped are
	// proposals the cache could not honor (out of range, no evictable
	// page, or the advisory fetch failed under faults).
	Prefetch   prefetch.Efficacy
	Evictions  int64
	Writebacks int64
}

// Cache is a swap cache over one contiguous far-memory region.
type Cache struct {
	cfg    Config
	tr     transport.Link
	base   uint64 // far address of page 0
	length int64  // region bytes
	// sec is the pool: a 4 KiB line per resident page, tagged by the page's
	// offset in the region; the line's Dirty, Spec and Ready are the page's.
	sec cache.Section
	// mru is the line touched last, unless the lists moved since: touching
	// it again would change nothing.
	mru   *cache.Line
	pf    prefetch.Policy
	stats Stats
	// faultsByPage records major-fault counts per page (per-object miss
	// attribution for the evaluation's Fig. 8); made on the first fault.
	faultsByPage []int64
	// Scratch kept so that no path allocates: an advisory issue's proposals,
	// its candidates, its batch's lines with their pages' addresses and
	// sizes, and FlushAll's resident lines.
	props   []int64
	cands   []int64
	batch   []*cache.Line
	addrs   []uint64
	sizes   []int
	lines   []*cache.Line
	collect func(*cache.Line) // appends to lines
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
	sec, err := cache.New(cache.Config{Name: "swap", Structure: cache.FullAssoc, LineBytes: PageBytes,
		SizeBytes: int64(cfg.Pages()) * PageBytes})
	if err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg, tr: tr, base: base, length: length, sec: sec}
	c.collect = func(l *cache.Line) { c.lines = append(c.lines, l) }
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
func (c *Cache) pageSize(no int64) int { return int(min(c.length-no*PageBytes, PageBytes)) }

// bytes is the part of l's buffer that holds its page: what moves on the wire.
func (c *Cache) bytes(l *cache.Line) []byte { return l.Data[:c.pageSize(int64(l.Tag/PageBytes))] }

// present reports whether page no is resident or in flight.
func (c *Cache) present(no int64) bool {
	_, ok := c.sec.Peek(uint64(no) * PageBytes)
	return ok
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
	for off := 0; off < len(buf); {
		no, err := c.pageOf(far + uint64(off))
		if err != nil {
			return err
		}
		pageOff := int((far + uint64(off) - c.base) % PageBytes)
		size := c.pageSize(no)
		fullWrite := isWrite && pageOff == 0 && len(buf)-off >= size
		l, err := c.touch(clk, no, fullWrite)
		if err != nil {
			return err
		}
		n := min(size-pageOff, len(buf)-off)
		if isWrite {
			copy(l.Data[pageOff:], buf[off:off+n])
			l.Dirty = true
		} else {
			copy(buf[off:off+n], l.Data[pageOff:])
		}
		off += n
	}
	return nil
}

// touch ensures page no is resident and mapped, charging fault costs.
// fullWrite marks an access that will overwrite the whole page.
func (c *Cache) touch(clk *sim.Clock, no int64, fullWrite bool) (*cache.Line, error) {
	tag := uint64(no) * PageBytes
	if l := c.mru; l != nil && l.Tag == tag {
		return l, nil
	}
	if l, ok := c.sec.Peek(tag); ok {
		if l.Spec {
			// First touch of a prefetched page: minor fault. Wait
			// for the in-flight fetch if it has not landed yet.
			c.stats.MinorFaults++
			c.cMinor.Inc()
			c.stats.Prefetch.Useful++
			c.cPfUseful.Inc()
			if l.Ready > clk.Now() {
				c.stats.Prefetch.Late++
			}
			clk.AdvanceTo(l.Ready)
			clk.Advance(c.cfg.MinorFaultOverhead)
			l.Spec = false
			// Stream-maintaining policies top their window back up on
			// the touch instead of waiting for the next major fault.
			if tp, ok := c.pf.(prefetch.StreamTopUp); ok {
				c.props = tp.OnPrefetchedTouch(no, c.props[:0])
				if err := c.issueAdvisory(clk, l, c.props); err != nil {
					return nil, err
				}
			}
		}
		c.sec.Touch(tag) // after the top-up, which the page was pinned through
		c.mru = l
		return l, nil
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
	l, err := c.claim(clk.Now(), no, false)
	if err == nil {
		err = c.fetch(clk.Now(), l, noFetch)
	}
	if err != nil {
		return nil, err
	}
	clk.AdvanceTo(l.Ready)
	if c.trc != nil {
		c.trc.Span(faultStart, clk.Now(), "swap", "fault.major", trace.I("page", no))
		c.hFaultLat.Observe(int64(clk.Now().Sub(faultStart)))
	}
	if noFetch {
		return l, nil // the far node is unreachable; skip prefetch too
	}

	// Consult the policy after servicing the demand page so its traffic
	// queues behind the demand fetch.
	c.props = c.pf.OnMiss(no, c.props[:0])
	if err := c.issueAdvisory(clk, l, c.props); err != nil {
		return nil, err
	}
	return l, nil
}

// issueAdvisory filters policy proposals and issues the survivors
// (batched when configured). The demand page (pin, nil for none) is pinned
// throughout: prefetch-triggered evictions must not invalidate the page about
// to be handed to the caller.
//
// The policy runs on the runner thread, off the fault path, as on the line
// plane (rt's policyIssue): its PerMissOverhead is charged by issuing the
// advisory fetch later — slower predictors land their prefetches later
// (and count Late more often) — never by stalling the demand access.
func (c *Cache) issueAdvisory(clk *sim.Clock, pin *cache.Line, proposals []int64) error {
	if pin != nil {
		pin.Pinned = true
	}
	cands := c.cands[:0]
	for _, pno := range proposals {
		if pno < 0 || pno >= c.npages() {
			c.stats.Prefetch.Dropped++
			c.cPfDropped.Inc()
			continue
		}
		if c.present(pno) {
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
	if pin != nil {
		pin.Pinned = false
	}
	return err
}

// PrefetchPages issues an advisory fetch for the given page numbers, exactly
// as a prefetcher proposal would (out-of-range and resident pages dropped,
// batch gather when configured). Callers outside the fault path — compiled
// prefetch statements of swap-placed objects — use it to turn their hints
// into page advisories.
func (c *Cache) PrefetchPages(clk *sim.Clock, pnos []int64) error {
	return c.issueAdvisory(clk, nil, pnos)
}

// AbsentPages counts the distinct pages among pnos that PrefetchPages asks
// far memory for: inside the region and neither resident nor in flight.
func (c *Cache) AbsentPages(pnos []int64) int {
	n := 0
	for i, pno := range pnos {
		if pno >= 0 && pno < c.npages() && !c.present(pno) && !slices.Contains(pnos[:i], pno) {
			n++
		}
	}
	return n
}

// prefetchEach issues one read per candidate page (the unbatched path).
func (c *Cache) prefetchEach(now sim.Time, cands []int64) error {
	for k, pno := range cands {
		if c.present(pno) {
			continue
		}
		l, err := c.claim(now, pno, true)
		if err == nil {
			err = c.fetch(now, l, false)
		}
		if err != nil {
			if err == errNoEvictable || errors.Is(err, transport.ErrFarUnavailable) || transport.IsTransient(err) {
				c.dropCands(len(cands) - k)
				return nil // advisory: no evictable page, or the far side is failing
			}
			return err
		}
		c.stats.Prefetch.Issued++
		c.cPrefetch.Inc()
	}
	return nil
}

// dropCands charges n prefetcher proposals that were abandoned before any
// data landed (advisory fetch failed, or no evictable slot).
func (c *Cache) dropCands(n int) {
	c.stats.Prefetch.Dropped += int64(n)
	c.cPfDropped.Add(int64(n))
}

// prefetchBatch claims a line for every candidate page and brings them all
// in with one doorbell-batched gather (land).
func (c *Cache) prefetchBatch(now sim.Time, cands []int64) error {
	c.batch, c.addrs, c.sizes = c.batch[:0], c.addrs[:0], c.sizes[:0]
	for _, pno := range cands {
		if c.present(pno) {
			continue
		}
		l, err := c.claim(now, pno, true)
		if err == errNoEvictable {
			break // pool too small; gather what we have
		}
		if err != nil {
			c.unclaimBatch()
			return err
		}
		c.batch = append(c.batch, l)
		c.addrs, c.sizes = append(c.addrs, c.base+l.Tag), append(c.sizes, c.pageSize(pno))
	}
	if len(c.batch) == 0 {
		return nil
	}
	if err := c.land(now); err != nil && !errors.Is(err, transport.ErrFarUnavailable) && !transport.IsTransient(err) {
		return err
	}
	return nil
}

// claim, fetch, land and unclaimBatch are the page plane's lifecycle seam,
// the line plane's (rt/line.go) at page granularity. claim readies a line
// for page no: the section reserves it at the inactive front, evicting the
// approximate-LRU victim when the pool is full (the pinned demand page is
// passed over; errNoEvictable when it is the only page). The line holds no
// bytes yet: fetch or land brings them, and the line goes back if they fail.
// A victim whose write-back fails gives the new line back too.
func (c *Cache) claim(now sim.Time, no int64, isPrefetch bool) (*cache.Line, error) {
	tag := uint64(no) * PageBytes
	c.mru = nil // the section's lists move; every Drop follows a claim or is FlushAll's
	l, v := c.sec.Reserve(tag)
	if l == nil {
		return nil, errNoEvictable
	}
	l.Spec = isPrefetch
	if v.Data != nil {
		if err := c.evicted(now, v); err != nil {
			c.sec.Drop(tag)
			return nil, err
		}
	}
	return l, nil
}

// fetch reads a claimed page's bytes in a message posted at now; its Ready
// records completion, which a prefetch does not wait for. noFetch instead
// leaves the zeroes Reserve handed the line out with, without touching the
// network (degraded full-page write-allocate). A failed read gives the line
// back.
func (c *Cache) fetch(now sim.Time, l *cache.Line, noFetch bool) error {
	if noFetch {
		l.Ready = now
		return nil
	}
	done, err := c.tr.ReadOneSided(now, c.base+l.Tag, c.bytes(l))
	if err != nil {
		c.sec.Drop(l.Tag)
		return err
	}
	l.Ready = done
	c.stats.PagesFetched++
	return nil
}

// land fetches the batch's claimed prefetch pages with one doorbell-batched
// gather posted at now. Page k is usable once its bytes have streamed in:
// chain completion minus the wire time of the pages behind it in the reply.
// A page a later claim of the batch evicted has lost its line; its bytes are
// dropped. A failed gather unclaims every line and drops every page.
func (c *Cache) land(now sim.Time) error {
	behind := 0
	for _, sz := range c.sizes {
		behind += sz
	}
	n := int64(len(c.batch))
	data, done, err := c.tr.GatherOneSided(now, c.addrs, c.sizes)
	if err != nil {
		c.unclaimBatch()
		c.dropCands(int(n))
		return err
	}
	off := 0
	for k, l := range c.batch {
		behind -= c.sizes[k]
		if c.owns(l, c.addrs[k]-c.base) {
			copy(l.Data, data[off:off+c.sizes[k]])
			l.Ready = done
			if c.cfg.Net.BytesPerSecond > 0 {
				l.Ready = done.Add(-c.cfg.Net.WireTime(behind))
			}
		}
		off += c.sizes[k]
	}
	c.stats.Prefetch.Issued += n
	c.cPrefetch.Add(n)
	c.stats.PagesFetched += n
	if c.trc != nil {
		c.trc.Span(now, done, "swap", "prefetch.batch", trace.I("pages", n))
	}
	return nil
}

// owns reports whether l, claimed for the page at tag, still holds it (rt's
// rule: the section gives that line back for the tag).
func (c *Cache) owns(l *cache.Line, tag uint64) bool {
	cur, ok := c.sec.Peek(tag)
	return ok && cur == l
}

// unclaimBatch gives the batch's claimed lines back when their bytes never
// arrived — except those a later claim of the batch already evicted.
func (c *Cache) unclaimBatch() {
	for k, l := range c.batch {
		if tag := c.addrs[k] - c.base; c.owns(l, tag) {
			c.sec.Drop(tag)
		}
	}
}

// errNoEvictable reports that every page in the pool is pinned — only
// possible when a prefetch races the demand page in a pool of one page.
var errNoEvictable = fmt.Errorf("swap: no evictable page")

// evicted settles a page that left the pool: an untouched prefetch was a
// wasted pull, and dirty bytes are written back asynchronously (write-back
// consumes link bandwidth but does not block) before the buffer goes back to
// the section.
func (c *Cache) evicted(now sim.Time, v cache.Victim) error {
	c.stats.Evictions++
	c.cEvict.Inc()
	if v.Spec {
		c.stats.Prefetch.Useless++
		c.cPfWaste.Inc()
	}
	if !v.Dirty {
		return nil
	}
	c.stats.Writebacks++
	_, err := c.tr.WriteOneSided(now, c.base+v.Tag, v.Data[:c.pageSize(int64(v.Tag/PageBytes))])
	c.sec.Recycle(v.Data)
	return err
}

// FlushAll writes every dirty resident page back and drops all pages,
// blocking clk until the last write-back lands. Used at program end and
// before offloaded calls.
func (c *Cache) FlushAll(clk *sim.Clock) error {
	// Write back in page order: write-back queueing on the shared link —
	// and so final sim times — must not depend on the section's list order.
	c.lines = c.lines[:0]
	c.sec.ForEachResident(c.collect)
	slices.SortFunc(c.lines, func(a, b *cache.Line) int { return cmp.Compare(a.Tag, b.Tag) })
	var last sim.Time
	for _, l := range c.lines {
		if !l.Dirty {
			continue
		}
		done, err := c.tr.WriteOneSided(clk.Now(), c.base+l.Tag, c.bytes(l))
		if err != nil {
			return err
		}
		c.stats.Writebacks++
		last = max(last, done)
	}
	c.mru = nil
	for _, l := range c.lines {
		l.Dirty = false // written back: the section keeps the buffer
		c.sec.Drop(l.Tag)
	}
	clk.AdvanceTo(last)
	return nil
}

// FaultsInRange reports major faults on pages overlapping [far, far+length).
// The query range is intersected with the region: an empty or disjoint range
// reports zero faults (it must not alias neighboring pages' counts).
func (c *Cache) FaultsInRange(far uint64, length int64) int64 {
	if length <= 0 {
		return 0
	}
	lo, hi := max(far, c.base), min(far+uint64(length), c.base+uint64(c.length))
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
func (c *Cache) SettleAsync() { c.sec.ForEachResident(settle) }

func settle(l *cache.Line) { l.Ready = 0 }

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
		wc.CapWindow(c.Capacity())
	}
	c.pf = pf
}

// Resident reports the number of resident pages.
func (c *Cache) Resident() int {
	n := 0
	c.sec.ForEachResident(func(*cache.Line) { n++ })
	return n
}

// Capacity reports the pool capacity in pages.
func (c *Cache) Capacity() int { return c.cfg.Pages() }

// Release hands the pool's storage to the process's free list
// (cache.Release): the cache must not be used again, and a dirty page still
// resident is dropped unwritten. A second Release does nothing.
func (c *Cache) Release() { cache.Release(c.sec) }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// MajorFaults is Stats().MajorFaults without the copy: the profiler's miss
// probe reads it around every access.
func (c *Cache) MajorFaults() int64 { return c.stats.MajorFaults }

// ResetStats zeroes the counters.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Base reports the far address of the region's first byte.
func (c *Cache) Base() uint64 { return c.base }
