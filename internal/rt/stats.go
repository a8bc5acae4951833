package rt

import (
	"mira/internal/cache"
	"mira/internal/cluster"
	"mira/internal/faults"
	"mira/internal/netmodel"
	"mira/internal/prefetch"
	"mira/internal/sim"
	"mira/internal/swap"
	"mira/internal/transport"
)

// ErrFarUnavailable is surfaced by accesses whose retry budget is exhausted
// while the far node is unreachable (re-exported from transport so runtime
// callers need not import it).
var ErrFarUnavailable = transport.ErrFarUnavailable

// DefaultNet returns the paper-calibrated interconnect model.
func DefaultNet() netmodel.Config { return netmodel.DefaultConfig() }

// perLineMetadata is the runtime metadata footprint per configured cache
// line, by structure. Fully-associative sections carry the
// remote-address-to-physical map plus list linkage (§5.3); direct-mapped
// sections only a tag word and flags. These feed the paper's metadata
// comparison (Fig. 20), where Mira's per-line metadata is far below AIFM's
// per-object metadata.
func perLineMetadata(s cache.Structure) int64 {
	switch s {
	case cache.Direct:
		return 16
	case cache.SetAssoc:
		return 24
	default:
		return 48
	}
}

// perPageMetadata is the swap section's per-page-slot metadata (mapping
// entry + LRU linkage).
const perPageMetadata = 16

// MetadataBytes reports the runtime's total metadata footprint for the
// current configuration: per-line section metadata plus the swap page
// table. This is the quantity Fig. 20 compares against AIFM.
func (r *Runtime) MetadataBytes() int64 {
	var total int64
	for _, s := range r.secs {
		total += int64(s.spec.Cache.Lines()) * perLineMetadata(s.spec.Cache.Structure)
	}
	if r.swapC != nil {
		total += int64(r.swapC.Capacity()) * perPageMetadata
	}
	return total
}

// SectionStats returns section idx's counters.
func (r *Runtime) SectionStats(idx int) cache.Stats {
	return r.secs[idx].sec.Stats()
}

// SectionStall is the sim time section idx has stalled its program: every
// demand access's dereference (the lookup or native check, miss handling,
// the fetch and the wait for a line still in flight) and the posting cost of
// each batched prefetch of its lines. It is what the section costs the run,
// and the planner's sizing ILP prices a section by it.
func (r *Runtime) SectionStall(idx int) sim.Duration {
	return r.secs[idx].stall
}

// NativeFallbacks reports how many native accesses to section idx missed
// their line and fell back to the lookup path: how often the compiler's
// residency claim failed there (traced as rt.native_fallback{section=}).
func (r *Runtime) NativeFallbacks(idx int) int64 {
	return r.secs[idx].nativeFallbacks
}

// SectionConfig returns section idx's cache configuration.
func (r *Runtime) SectionConfig(idx int) cache.Config {
	return r.secs[idx].spec.Cache
}

// NumSections reports the number of non-swap sections.
func (r *Runtime) NumSections() int { return len(r.secs) }

// SwapStats returns the swap section's counters (zero if no swap section).
func (r *Runtime) SwapStats() swap.Stats {
	if r.swapC == nil {
		return swap.Stats{}
	}
	return r.swapC.Stats()
}

// HasSwap reports whether a swap section was created at Bind.
func (r *Runtime) HasSwap() bool { return r.swapC != nil }

// SwapPrefetcher installs a page prefetch policy on the swap section (the
// session installs the one its spec states). Must be called after Bind.
func (r *Runtime) SwapPrefetcher(pf prefetch.Policy) {
	if r.swapC != nil {
		r.swapC.SetPrefetcher(pf)
	}
}

// BytesMoved reports total bytes that crossed the interconnect, summed over
// the pool's links.
func (r *Runtime) BytesMoved() int64 { return r.tr.BytesMoved() }

// NetStats reports the transport's resilience counters: retries, timeouts,
// checksum failures, breaker trips, and degraded-mode activity.
func (r *Runtime) NetStats() transport.Stats { return r.tr.Stats() }

// FaultStats reports what the fault injectors actually injected, summed
// over the pool's per-node fault domains (zero when faults are disabled);
// see ClusterStats for the breakdown.
func (r *Runtime) FaultStats() faults.Stats {
	var sum faults.Stats
	for _, ns := range r.pool.NodeStats() {
		f := ns.Faults
		sum.Ops += f.Ops
		sum.DownRefusals += f.DownRefusals
		sum.Partitioned += f.Partitioned
		sum.IOErrors += f.IOErrors
		sum.Delays += f.Delays
		sum.BitFlips += f.BitFlips
		sum.Wipes += f.Wipes
	}
	return sum
}

// ClusterStats reports the per-node pool counters, ordered by node ID: one
// row on a one-node pool.
func (r *Runtime) ClusterStats() []cluster.NodeStats { return r.pool.NodeStats() }

// ShareBandwidth makes this runtime contend for bw with other runtimes —
// simulated threads with private cache sections share the physical link
// (§4.6 multithreading), and co-located tenants share the compute node's
// NIC in serving mode. Every far node's link is replaced by bw: the shared
// bottleneck is the compute side, which all remote traffic crosses
// regardless of which far node serves it.
func (r *Runtime) ShareBandwidth(bw *netmodel.Bandwidth) { r.pool.ShareBandwidth(bw) }

// SwapLock serializes the swap fault path across threads (must be called
// after Bind; no-op without a swap section).
func (r *Runtime) SwapLock(l *sim.Serializer) {
	if r.swapC != nil {
		r.swapC.SetLock(l)
	}
}

// SetActiveTid selects the simulated thread to which subsequent cache
// events are attributed (per-tid hit/miss/evict counters; see TidStats).
// The multithreaded drivers call it on every scheduler resume;
// single-threaded runs leave it at 0.
func (r *Runtime) SetActiveTid(tid int) { r.activeTid = tid }

// TidStats reports section idx's counters attributed to simulated thread
// tid (zeros for a tid the section never saw). Under interleaved execution
// over a shared section these expose cross-thread eviction interference:
// a thread's evict count includes victims another thread fetched.
func (r *Runtime) TidStats(idx, tid int) (hits, misses, evicts int64) {
	s := r.secs[idx]
	at := func(v []int64) int64 {
		if tid < len(v) {
			return v[tid]
		}
		return 0
	}
	return at(s.tidHits), at(s.tidMisses), at(s.tidEvicts)
}

// ResetStats clears every section's and the swap pool's counters (between
// profiling rounds).
func (r *Runtime) ResetStats() {
	for _, s := range r.secs {
		s.sec.ResetStats()
		s.stall = 0
	}
	r.secMisses = 0
	if r.swapC != nil {
		r.swapC.ResetStats()
	}
}

// MissCount aggregates misses across sections and swap major faults — the
// cheap per-access probe the profiler samples (§4.1: metrics "collected
// only when a non-native cache event happens").
func (r *Runtime) MissCount() int64 {
	if r.swapC == nil {
		return r.secMisses
	}
	return r.secMisses + r.swapC.MajorFaults()
}

// SwapFaultsIn reports the swap section's major faults on the pages backing
// an object (per-object miss attribution when everything shares the swap
// pool).
func (r *Runtime) SwapFaultsIn(name string) int64 {
	o, ok := r.objs[name]
	if !ok || o.place.Kind != PlaceSwap || r.swapC == nil {
		return 0
	}
	return r.swapC.FaultsInRange(o.farBase, o.decl.SizeBytes())
}

// ObjectStats reports an object's cache-section hit/miss counters (zero
// for swap/local placements — their events are counted by the swap cache).
func (r *Runtime) ObjectStats(name string) (hits, misses int64) {
	if o, ok := r.objs[name]; ok {
		return o.hits, o.misses
	}
	return 0, 0
}
