package transport

import "mira/internal/sim"

// Link is the far-memory data plane the runtime and the swap cache drive:
// one-sided reads/writes, two-sided gather/scatter, offload RPCs, and the
// degraded-mode controls. Two implementations exist: *T (a single resilient
// transport over one far node — the paper's testbed) and cluster.Pool (a
// sharded, replicated pool of far nodes, each behind its own *T).
//
// Every operation takes the caller's virtual instant and returns the
// completion instant; data movement is real, so the whole data path stays
// verifiable independent of the timing model.
//
// A gather reply belongs to the link: GatherTwoSided and GatherOneSided
// return a buffer that is valid until the next call on the same link, of
// any method, and a caller that needs the bytes longer copies them out
// first (every consumer lands the pieces in its own lines, frames or
// entries before it does anything else). transporttest.ScribbleLink holds
// consumers to it.
type Link interface {
	// ReadOneSided fetches len(buf) bytes at far address addr.
	ReadOneSided(now sim.Time, addr uint64, buf []byte) (sim.Time, error)
	// WriteOneSided pushes buf to far address addr.
	WriteOneSided(now sim.Time, addr uint64, buf []byte) (sim.Time, error)
	// GatherTwoSided fetches several pieces in one two-sided message. The
	// reply is valid until the next call on the link.
	GatherTwoSided(now sim.Time, addrs []uint64, sizes []int) ([]byte, sim.Time, error)
	// ScatterTwoSided writes several pieces in one two-sided message.
	ScatterTwoSided(now sim.Time, addrs []uint64, pieces [][]byte) (sim.Time, error)
	// GatherOneSided fetches several pieces with one doorbell-batched
	// chain of one-sided reads (one RTT, one posting overhead for the
	// whole chain) — the runtime's batched-prefetch primitive. The reply is
	// valid until the next call on the link.
	GatherOneSided(now sim.Time, addrs []uint64, sizes []int) ([]byte, sim.Time, error)
	// ScatterWrite pushes several pieces with one doorbell-batched chain
	// of one-sided writes — the coalesced write-back primitive.
	ScatterWrite(now sim.Time, addrs []uint64, pieces [][]byte) (sim.Time, error)
	// Call invokes an offloaded procedure on the far side.
	Call(now sim.Time, name string, args []byte) ([]byte, sim.Time, error)
	// Flush forces every queued degraded-mode write-back out to far
	// memory, returning the completion instant of the last drained write.
	Flush(now sim.Time) (sim.Time, error)
	// BreakerOpen reports whether a circuit breaker is open at now (for a
	// pool: whether any node's breaker is open). The cache layers consult
	// it to switch into degraded mode.
	BreakerOpen(now sim.Time) bool
	// Stats returns the link's aggregate resilience counters.
	Stats() Stats
	// BytesMoved reports the total bytes that crossed the interconnect
	// (for a pool: summed over every per-node link).
	BytesMoved() int64
	// Messages reports the total link-level transfers issued (for a
	// pool: summed over every per-node link) — the metric vectored I/O
	// collapses.
	Messages() int64
}

// BytesMoved reports the bytes that crossed this transport's link.
func (t *T) BytesMoved() int64 { return t.BW.BytesMoved() }

// Messages reports the link-level transfers issued on this transport.
func (t *T) Messages() int64 { return t.BW.Transfers() }

// Interface conformance.
var _ Link = (*T)(nil)
