// Package plane defines the one data-plane contract both of Mira's far-memory
// mechanisms implement: the kernel-paging plane (internal/swap, 4 KiB pages)
// and the runtime line plane (internal/rt sections over internal/cache). A
// DataPlane caches some unit of far memory locally, charges every move to the
// simulated clock, and can always be flushed back to a consistent far image.
//
// The contract is deliberately address-based (far addresses, not object
// names) so a conformance suite (planetest) can drive both implementations
// through one script and compare behavior. It is that suite's contract: the
// runtime serves each object from the plane its placement names, and the
// placement never changes mid-run.
package plane

import (
	"mira/internal/sim"
	"mira/internal/trace"
)

// Kind names a data-plane mechanism.
type Kind uint8

const (
	// Page is the kernel-paging plane: 4 KiB pages, an LRU pool, faults
	// priced like FastSwap. Cheap for dense streaming (no per-access
	// software overhead beyond the fault), wasteful for sparse access
	// (full-page amplification).
	Page Kind = iota
	// Line is the runtime cache-section plane: program-sized lines,
	// software lookup on every access, write-back queues. Cheap for
	// sparse and pointer-chasing access, slower per byte for streams.
	Line
)

func (k Kind) String() string {
	switch k {
	case Page:
		return "page"
	case Line:
		return "line"
	default:
		return "unknown"
	}
}

// Stats is the normalized counter set both planes report. Implementations
// map their native counters onto it (the swap plane's major faults become
// Misses, a section's cache hits stay Hits), so cross-plane dashboards and
// the conformance suite can compare mechanisms without knowing which one
// they are looking at.
type Stats struct {
	Accesses       int64
	Hits           int64
	Misses         int64
	Evictions      int64
	Writebacks     int64
	PrefetchIssued int64
	PrefetchUseful int64
}

// DataPlane is the single contract over both far-memory mechanisms. All
// methods charge simulated time to clk; none touch wall-clock state, so a
// fixed call script is byte-identical across replays.
type DataPlane interface {
	// Kind names the mechanism.
	Kind() Kind
	// UnitBytes is the plane's transfer granularity: the page size for the
	// paged plane, the section's line size for the line plane.
	UnitBytes() int
	// CapacityUnits is how many units the plane can hold locally right
	// now (elastic rescales change it for the line plane).
	CapacityUnits() int
	// ResidentUnits is how many units are currently cached locally.
	ResidentUnits() int
	// Access reads (write=false) or writes (write=true) len(buf) bytes at
	// far address far, faulting units in as needed.
	Access(clk *sim.Clock, far uint64, buf []byte, write bool) error
	// PrefetchBatch advises the plane to fetch the units containing the
	// given far addresses. Purely advisory: out-of-range, resident, and
	// in-flight proposals are dropped (and counted), never errors.
	PrefetchBatch(clk *sim.Clock, fars []uint64) error
	// Evict writes back and drops every unit overlapping [far, far+length),
	// blocking clk until the dirty bytes are in far memory: after Evict the
	// range's authoritative bytes live in far memory.
	Evict(clk *sim.Clock, far uint64, length int64) error
	// Fence blocks clk until every in-flight speculative fetch and
	// asynchronous write-back has landed.
	Fence(clk *sim.Clock)
	// Flush writes back and drops everything resident.
	Flush(clk *sim.Clock) error
	// Stats reports the plane's normalized counters.
	Stats() Stats
	// SetTrace attaches a tracer for the plane's spans and counters.
	SetTrace(tr *trace.Tracer)
}
