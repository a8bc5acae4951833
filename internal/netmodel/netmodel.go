// Package netmodel models the interconnect between the compute node and the
// far-memory node: an RDMA-like transport with one-sided reads/writes,
// two-sided messages, scatter-gather batching, and a shared link whose
// bandwidth is contended by all simulated threads.
//
// The paper's testbed is 50 Gbps InfiniBand (Mellanox FDR-CX3); the default
// Config is calibrated to it. Every cost is virtual time (sim.Duration), so
// experiments are deterministic. The model captures the effects the paper's
// evaluation depends on:
//
//   - a base round-trip latency per operation, paid once per message,
//   - a per-byte cost (line size and 4 KB page amplification matter),
//   - cheaper large messages than many small ones (batching, §4.5),
//   - one-sided ops that avoid the remote CPU copy vs two-sided ops that
//     pay a copy but can carry partial structures (§4.7).
package netmodel

import (
	"fmt"
	"sort"
	"sync"

	"mira/internal/sim"
)

// Config holds the interconnect cost parameters. All durations are virtual.
type Config struct {
	// OneSidedRTT is the end-to-end latency of a one-sided read or write
	// of minimal size (verbs post + NIC + wire + DMA completion).
	OneSidedRTT sim.Duration
	// TwoSidedRTT is the latency of a two-sided message exchange of
	// minimal size: it exceeds OneSidedRTT by the remote CPU's receive
	// path.
	TwoSidedRTT sim.Duration
	// BytesPerSecond is the link bandwidth (default: 50 Gbps).
	BytesPerSecond int64
	// PerMessageOverhead is the sender-side CPU cost of posting one work
	// request; batched scatter-gather entries share a single message and
	// therefore pay it once.
	PerMessageOverhead sim.Duration
	// PerSGEOverhead is the incremental cost of each additional
	// scatter-gather element in a batched message.
	PerSGEOverhead sim.Duration
	// RemoteCopyPerByte is the remote CPU's per-byte cost of staging a
	// two-sided message into or out of its final location.
	RemoteCopyPerByte float64 // nanoseconds per byte
	// MaxMessageBytes is the largest efficiently-transmittable message;
	// larger transfers are split and pay latency again per chunk. The
	// paper observes the edge-section benefit flattening near 2 KB lines
	// because of this knee (Fig. 9).
	MaxMessageBytes int
}

// DefaultConfig returns the cost model calibrated to the paper's testbed
// (§6): 50 Gbps InfiniBand, ~3 µs small-read latency.
func DefaultConfig() Config {
	return Config{
		OneSidedRTT:        3 * sim.Microsecond,
		TwoSidedRTT:        4200 * sim.Nanosecond,
		BytesPerSecond:     50_000_000_000 / 8, // 50 Gbps => 6.25 GB/s
		PerMessageOverhead: 250 * sim.Nanosecond,
		PerSGEOverhead:     60 * sim.Nanosecond,
		RemoteCopyPerByte:  0.08,
		MaxMessageBytes:    2048,
	}
}

// Validate reports an error for non-physical configurations.
func (c Config) Validate() error {
	switch {
	case c.OneSidedRTT <= 0:
		return fmt.Errorf("netmodel: OneSidedRTT must be positive, got %v", c.OneSidedRTT)
	case c.TwoSidedRTT < c.OneSidedRTT:
		return fmt.Errorf("netmodel: TwoSidedRTT %v below OneSidedRTT %v", c.TwoSidedRTT, c.OneSidedRTT)
	case c.BytesPerSecond <= 0:
		return fmt.Errorf("netmodel: BytesPerSecond must be positive, got %d", c.BytesPerSecond)
	case c.MaxMessageBytes <= 0:
		return fmt.Errorf("netmodel: MaxMessageBytes must be positive, got %d", c.MaxMessageBytes)
	case c.PerMessageOverhead < 0 || c.PerSGEOverhead < 0 || c.RemoteCopyPerByte < 0:
		return fmt.Errorf("netmodel: negative overhead in config")
	}
	return nil
}

// WireTime is the serialization delay of n bytes on the link — the portion
// of a transfer's cost that occupies the shared link and therefore contends
// across threads.
//
// Rounding rule (load-bearing for determinism now that wire codecs shrink
// payloads to arbitrary small sizes): the delay is computed in float
// nanoseconds and truncated toward zero by the sim.Duration conversion, so
// any payload whose serialization takes under 1 ns — e.g. 1..6 bytes at the
// default 6.25 GB/s, 0.16 ns/B — contributes exactly 0 wire time, and
// n <= 0 is 0 by definition. Sub-nanosecond remainders are dropped per
// call, never accumulated; two runs issuing the same payload sequence
// therefore always agree. Tiny messages still pay PerMessageOverhead in
// Bandwidth.Acquire (doorbell occupancy is per message, not per byte).
func (c Config) WireTime(n int) sim.Duration { return c.wireTime(n) }

// wireTime is the serialization delay of n bytes on the link (truncated
// toward zero; see WireTime for the rounding rule).
func (c Config) wireTime(n int) sim.Duration {
	if n <= 0 {
		return 0
	}
	return sim.Duration(float64(n) * 1e9 / float64(c.BytesPerSecond))
}

// chunks reports how many link-level messages a transfer of n bytes needs.
func (c Config) chunks(n int) int {
	if n <= 0 {
		return 1
	}
	k := (n + c.MaxMessageBytes - 1) / c.MaxMessageBytes
	if k < 1 {
		k = 1
	}
	return k
}

// OneSidedCost returns the issuing thread's latency for a one-sided
// read/write of n bytes: one RTT per MaxMessageBytes chunk (the CX3
// generation the paper uses does not pipeline multi-packet requests — this
// is the mechanism behind Fig. 9's ~2 KB line-size knee), wire time, and a
// posting overhead per chunk.
func (c Config) OneSidedCost(n int) sim.Duration {
	k := c.chunks(n)
	return c.OneSidedRTT*sim.Duration(k) +
		c.wireTime(n) + c.PerMessageOverhead*sim.Duration(k)
}

// TwoSidedCost returns the latency of a two-sided exchange carrying n
// payload bytes, including the remote CPU copy.
func (c Config) TwoSidedCost(n int) sim.Duration {
	k := c.chunks(n)
	return c.TwoSidedRTT*sim.Duration(k) +
		c.wireTime(n) + c.PerMessageOverhead*sim.Duration(k) +
		sim.Duration(float64(n)*c.RemoteCopyPerByte)
}

// BatchedCost returns the latency of one scatter-gather message carrying the
// given piece sizes. Compared with issuing len(pieces) separate messages, the
// RTT and posting overhead are paid once (plus a small per-SGE cost), which
// is the mechanism behind the paper's data-access batching (§4.5, Fig. 23).
// Batched messages are two-sided: the far node must scatter the pieces.
func (c Config) BatchedCost(pieces []int) sim.Duration {
	if len(pieces) == 0 {
		return 0
	}
	total := 0
	for _, p := range pieces {
		total += p
	}
	k := c.chunks(total)
	return c.TwoSidedRTT*sim.Duration(k) +
		c.wireTime(total) +
		c.PerMessageOverhead*sim.Duration(k) +
		c.PerSGEOverhead*sim.Duration(len(pieces)) +
		sim.Duration(float64(total)*c.RemoteCopyPerByte)
}

// VectoredOneSidedCost returns the latency of a doorbell-batched chain of
// one-sided work requests covering the given piece sizes. The sender posts
// one WR per MaxMessageBytes chunk of each piece and rings the doorbell
// once, so the chain pays the posting overhead once (plus a per-WR SGE
// cost) and — unlike issuing the pieces as separate requests — the WRs
// pipeline through the NIC: one round trip covers the whole chain, and the
// pieces then stream back-to-back on the wire. No remote CPU is involved
// (the far node's NIC serves each WR directly), which is what makes this
// the cheapest way to move N cache lines and the mechanism behind the
// runtime's batched prefetch and vectored write-back (§4.5).
func (c Config) VectoredOneSidedCost(pieces []int) sim.Duration {
	if len(pieces) == 0 {
		return 0
	}
	total, wrs := 0, 0
	for _, p := range pieces {
		total += p
		wrs += c.chunks(p)
	}
	return c.OneSidedRTT + c.wireTime(total) +
		c.PerMessageOverhead + c.PerSGEOverhead*sim.Duration(wrs)
}

// VectoredPostCost is the sender-side CPU cost of posting a doorbell-batched
// chain of n pieces without waiting for it: the cost an asynchronous batched
// prefetch charges to the issuing thread.
func (c Config) VectoredPostCost(n int) sim.Duration {
	if n <= 0 {
		return 0
	}
	return c.PerMessageOverhead + c.PerSGEOverhead*sim.Duration(n)
}

// RTTEstimate returns the latency a compiler should assume when computing
// prefetch distances (§4.5): the one-sided RTT plus wire time for a typical
// line of n bytes.
func (c Config) RTTEstimate(n int) sim.Duration {
	return c.OneSidedRTT + c.wireTime(n) + c.PerMessageOverhead
}

// Bandwidth serializes transfers from all simulated threads onto the shared
// link, modelling contention: a transfer issued at time t begins when the
// link frees up and occupies it for the transfer's wire time plus one
// PerMessageOverhead — the NIC's per-doorbell processing. That per-transfer
// term is what doorbell coalescing attacks: a vectored chain crosses the
// link as one transfer, so N lines pay the overhead once instead of N times.
// It is safe for concurrent use (simulated threads may run on real
// goroutines in tests).
type Bandwidth struct {
	mu       sync.Mutex
	cfg      Config
	nextFree sim.Time
	// totals for reporting
	bytesMoved int64
	transfers  int64

	// Weighted-fair arbitration (serving mode). With no tenants registered
	// the accountant is the pure FIFO above — byte-identical to the
	// pre-tenant behavior. With tenants, a transfer's wire occupancy is
	// unchanged but its *returned completion* is inflated by the pacing
	// surcharge busy·(1/share − 1): the issuing thread advances its clock
	// to the returned instant before touching the link again, so a
	// saturating tenant self-limits to its weight share while the wire
	// stays free for its peers during the surcharge — the link remains
	// work-conserving. (Start-time deferral would instead reserve future
	// wire slots and serialize everyone behind the paced tenant, because
	// the synchronous Acquire contract commits completions immediately.)
	// Shares are weight over the total weight of tenants active within
	// DefaultFairWindow, so a sole active tenant has share 1 and pays
	// nothing.
	tenants map[string]*tenantBW
	order   []string // sorted tenant names: deterministic share scans
	active  string   // tenant charged for subsequent Acquires
}

// tenantBW is one tenant's pacing state and traffic total.
type tenantBW struct {
	weight   float64
	lastSeen sim.Time // completion of the tenant's latest transfer
	bytes    int64
}

// DefaultFairWindow is the activity window of the weighted-fair arbiter: a
// tenant whose last transfer completed within the window counts toward the
// active share total. Long enough to span a request's think gaps, short
// enough that an idle tenant's share is redistributed promptly.
const DefaultFairWindow = 200 * sim.Microsecond

// NewBandwidth returns a contention accountant over cfg's link.
func NewBandwidth(cfg Config) *Bandwidth {
	return &Bandwidth{cfg: cfg}
}

// SetTenantWeight registers a tenant with the weighted-fair arbiter (or
// updates its weight; non-positive weights clamp to 1). Registering any
// tenant switches Acquire from pure FIFO to tenant pacing for attributed
// transfers.
func (b *Bandwidth) SetTenantWeight(name string, w float64) {
	if w <= 0 {
		w = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tenants == nil {
		b.tenants = make(map[string]*tenantBW)
	}
	t := b.tenants[name]
	if t == nil {
		t = &tenantBW{}
		b.tenants[name] = t
		i := sort.SearchStrings(b.order, name)
		b.order = append(b.order, "")
		copy(b.order[i+1:], b.order[i:])
		b.order[i] = name
	}
	t.weight = w
}

// SetActiveTenant attributes subsequent Acquires to the named tenant (the
// serving layer calls it on every scheduler resume, like rt.SetActiveTid).
// An empty name or an unregistered tenant reverts to unattributed FIFO.
func (b *Bandwidth) SetActiveTenant(name string) {
	b.mu.Lock()
	b.active = name
	b.mu.Unlock()
}

// TenantBytes reports the bytes moved by transfers attributed to name.
func (b *Bandwidth) TenantBytes(name string) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if t := b.tenants[name]; t != nil {
		return t.bytes
	}
	return 0
}

// shareLocked computes the active tenant's weight share among tenants seen
// within the fair window of `at` (the requester always counts). Scanning
// the sorted order keeps the result independent of map iteration.
func (b *Bandwidth) shareLocked(name string, at sim.Time) float64 {
	cutoff := at.Add(-DefaultFairWindow)
	var total, mine float64
	for _, tn := range b.order {
		t := b.tenants[tn]
		if tn == name || (t.lastSeen > 0 && t.lastSeen >= cutoff) {
			total += t.weight
			if tn == name {
				mine = t.weight
			}
		}
	}
	if total <= 0 || mine <= 0 {
		return 1
	}
	return mine / total
}

// Acquire reserves the link for n bytes starting no earlier than now and
// returns the instant the transfer completes on the wire. Latency (RTT) is
// not included here — callers add it — only serialization and queueing.
// Every non-empty transfer also holds the link for one PerMessageOverhead:
// the NIC processes one doorbell per message, so two messages occupy it
// strictly longer than one message carrying the same bytes. Zero-byte
// acquires ring no doorbell and are free in time (they still count one
// transfer for the stats).
//
// Boundary semantics, pinned for compressed tiny payloads: a 1-byte
// transfer occupies the link for exactly PerMessageOverhead (its wire time
// truncates to 0 under the default link — see Config.WireTime's rounding
// rule); a 0-byte transfer occupies it for exactly 0 and pays no overhead.
// Both are pure functions of (now, n, queue state), so compressed messages
// of any size replay byte-identically.
func (b *Bandwidth) Acquire(now sim.Time, n int) sim.Time {
	b.mu.Lock()
	defer b.mu.Unlock()
	start := now
	if b.nextFree > start {
		start = b.nextFree
	}
	busy := b.cfg.wireTime(n)
	if n > 0 {
		busy += b.cfg.PerMessageOverhead
	}
	end := start.Add(busy)
	b.nextFree = end
	b.bytesMoved += int64(n)
	b.transfers++
	if b.active != "" {
		if t := b.tenants[b.active]; t != nil {
			t.bytes += int64(n)
			share := b.shareLocked(b.active, start)
			t.lastSeen = end
			if share < 1 && busy > 0 {
				end = end.Add(sim.Duration(float64(busy) * (1/share - 1)))
			}
		}
	}
	return end
}

// BytesMoved reports the total bytes that crossed the link.
func (b *Bandwidth) BytesMoved() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bytesMoved
}

// Transfers reports the number of link acquisitions.
func (b *Bandwidth) Transfers() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.transfers
}

// Reset clears the accountant between runs. Tenant registrations survive;
// their pacing state and traffic totals are cleared.
func (b *Bandwidth) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextFree = 0
	b.bytesMoved = 0
	b.transfers = 0
	b.active = ""
	for _, t := range b.tenants {
		t.lastSeen = 0
		t.bytes = 0
	}
}
