package cluster

import (
	"sync"

	"mira/internal/farmem"
	"mira/internal/sim"
	"mira/internal/trace"
	"mira/internal/transport"
)

// DefaultTierGranule is the hot/cold tracking granule of the capacity tier:
// one SSD page. Demotion and promotion move whole granules.
const DefaultTierGranule = 4096

// DefaultPromoteLatency is charged per granule read back from flash: one
// NVMe random read.
const DefaultPromoteLatency = 15 * sim.Microsecond

// TierConfig configures a node's simulated SSD capacity tier. The node's
// DRAM holds at most DRAMBytes of touched granules (DefaultTierGranule
// each); the LRU tail spills to a flash tier that costs
// DefaultPromoteLatency per granule to read back but survives a crash-wipe
// (flash is non-volatile; farmem.Node.WipeMemory only zeroes DRAM).
type TierConfig struct {
	// DRAMBytes is the hot-tier budget. Zero disables the tier.
	DRAMBytes uint64
}

// TierStats are the capacity-tier counters of one node.
type TierStats struct {
	Hits          int64 // accesses served entirely from the DRAM tier
	Misses        int64 // granule promotions from flash (one per granule)
	Demotions     int64 // granules spilled DRAM -> flash
	ResidentBytes int64 // touched granule bytes currently in DRAM
	SSDBytes      int64 // granule bytes currently on flash
}

// granule is one tracked hot/cold unit, a member of the LRU list when
// resident.
type granule struct {
	key        uint64 // granule index (addr / DefaultTierGranule)
	resident   bool
	sticky     bool   // straddles an allocation edge — cannot be snapshotted
	lastOp     uint64 // op sequence of the last touch (eviction pin)
	prev, next *granule
}

// tierBackend interposes between the transport (or the fault injector) and
// the raw node backend: every access touches the granules it covers,
// promoting cold ones from the flash map before the inner backend moves the
// actual bytes. The flash map is plain process memory that WipeMemory never
// sees, which is exactly the crash-survivability model: a restart loses
// DRAM, not flash.
type tierBackend struct {
	inner transport.Backend
	fm    *farmem.Node
	cfg   TierConfig

	mu       sync.Mutex
	granules map[uint64]*granule
	ssd      map[uint64][]byte // demoted granule bytes, key = granule index
	head     *granule          // LRU list of resident granules, head = hottest
	tail     *granule
	resident uint64 // bytes counted against DRAMBytes
	opSeq    uint64
	stats    TierStats

	cHit, cMiss, cDemote *trace.Counter // nil-safe
}

func newTierBackend(inner transport.Backend, fm *farmem.Node, cfg TierConfig) *tierBackend {
	return &tierBackend{
		inner:    inner,
		fm:       fm,
		cfg:      cfg,
		granules: make(map[uint64]*granule),
		ssd:      make(map[uint64][]byte),
	}
}

func (tb *tierBackend) setTrace(reg *trace.Registry) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.cHit = reg.Counter("cluster.tier.hits")
	tb.cMiss = reg.Counter("cluster.tier.misses")
	tb.cDemote = reg.Counter("cluster.tier.demotions")
}

// Stats snapshots the tier counters.
func (tb *tierBackend) Stats() TierStats {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	s := tb.stats
	s.ResidentBytes = int64(tb.resident)
	var ssd int64
	for _, b := range tb.ssd {
		ssd += int64(len(b))
	}
	s.SSDBytes = ssd
	return s
}

// --- LRU list (resident granules only) ---

func (tb *tierBackend) lruUnlink(g *granule) {
	if g.prev != nil {
		g.prev.next = g.next
	} else if tb.head == g {
		tb.head = g.next
	}
	if g.next != nil {
		g.next.prev = g.prev
	} else if tb.tail == g {
		tb.tail = g.prev
	}
	g.prev, g.next = nil, nil
}

func (tb *tierBackend) lruFront(g *granule) {
	tb.lruUnlink(g)
	g.next = tb.head
	if tb.head != nil {
		tb.head.prev = g
	}
	tb.head = g
	if tb.tail == nil {
		tb.tail = g
	}
}

// touch walks the granules covering [addr, addr+n), promoting cold ones,
// and returns the flash latency the access pays. Must run BEFORE the inner
// backend moves bytes: promotion restores a demoted granule's flash copy
// into node DRAM, which after a crash-wipe is the only surviving copy.
func (tb *tierBackend) touch(addr uint64, n int) sim.Duration {
	if n <= 0 {
		return 0
	}
	g := uint64(DefaultTierGranule)
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.opSeq++
	var extra sim.Duration
	hit := true
	first, last := addr/g, (addr+uint64(n)-1)/g
	for key := first; key <= last; key++ {
		gr := tb.granules[key]
		if gr == nil {
			// First touch: the granule is born resident (its bytes were
			// written through DRAM).
			gr = &granule{key: key, resident: true}
			tb.granules[key] = gr
			tb.resident += g
		}
		gr.lastOp = tb.opSeq
		if !gr.resident {
			hit = false
			tb.stats.Misses++
			tb.cMiss.Inc()
			extra += DefaultPromoteLatency
			if bytes := tb.ssd[key]; bytes != nil {
				// Restore the flash copy into DRAM before the inner backend
				// reads it. Ignore failure: the allocation was freed.
				_ = tb.fm.CopyIn(key*g, bytes)
				delete(tb.ssd, key)
			}
			gr.resident = true
			tb.resident += g
		}
		tb.lruFront(gr)
	}
	if hit {
		tb.stats.Hits++
		tb.cHit.Inc()
	}
	tb.demoteToBudget()
	return extra
}

// demoteToBudget spills LRU-tail granules to flash until the DRAM budget
// holds. Granules touched by the current operation are pinned; granules
// straddling an allocation edge (snapshot fails) turn sticky and stay
// resident forever. Called with tb.mu held.
func (tb *tierBackend) demoteToBudget() {
	g := uint64(DefaultTierGranule)
	victim := tb.tail
	for tb.resident > tb.cfg.DRAMBytes && victim != nil {
		prev := victim.prev
		if victim.sticky || victim.lastOp == tb.opSeq {
			victim = prev
			continue
		}
		buf := make([]byte, g)
		if err := tb.fm.CopyOut(victim.key*g, buf); err != nil {
			victim.sticky = true
			victim = prev
			continue
		}
		tb.ssd[victim.key] = buf
		victim.resident = false
		tb.lruUnlink(victim)
		tb.resident -= g
		tb.stats.Demotions++
		tb.cDemote.Inc()
		victim = prev
	}
}

// Restore marks the granules covering [addr, addr+n) resident and drops
// their flash copies. The cluster re-sync path writes recovered bytes
// straight into node DRAM (bypassing the transport), so a stale flash copy
// left behind would shadow the restored bytes at the next promotion.
func (tb *tierBackend) Restore(addr uint64, n int) {
	if n <= 0 {
		return
	}
	g := uint64(DefaultTierGranule)
	tb.mu.Lock()
	defer tb.mu.Unlock()
	for key := addr / g; key <= (addr+uint64(n)-1)/g; key++ {
		gr := tb.granules[key]
		if gr == nil || gr.resident {
			continue
		}
		delete(tb.ssd, key)
		gr.resident = true
		tb.resident += g
		tb.lruFront(gr)
	}
	tb.demoteToBudget()
}

// --- transport.Backend ---

func (tb *tierBackend) Read(now sim.Time, addr uint64, buf []byte) (uint32, sim.Duration, error) {
	ex := tb.touch(addr, len(buf))
	sum, extra, err := tb.inner.Read(now, addr, buf)
	return sum, extra + ex, err
}

func (tb *tierBackend) Write(now sim.Time, addr uint64, buf []byte) (sim.Duration, error) {
	// A sub-granule write to a cold granule is a read-modify-write: the
	// granule promotes first, then the inner write lands on DRAM.
	ex := tb.touch(addr, len(buf))
	extra, err := tb.inner.Write(now, addr, buf)
	return extra + ex, err
}

func (tb *tierBackend) Gather(now sim.Time, addrs []uint64, sizes []int) ([]byte, uint32, sim.Duration, error) {
	var ex sim.Duration
	for i, a := range addrs {
		ex += tb.touch(a, sizes[i])
	}
	data, sum, extra, err := tb.inner.Gather(now, addrs, sizes)
	return data, sum, extra + ex, err
}

func (tb *tierBackend) Scatter(now sim.Time, addrs []uint64, pieces [][]byte) (sim.Duration, error) {
	var ex sim.Duration
	for i, a := range addrs {
		ex += tb.touch(a, len(pieces[i]))
	}
	extra, err := tb.inner.Scatter(now, addrs, pieces)
	return extra + ex, err
}

// Call passes through untouched: offloaded procedures execute against the
// far node's DRAM (the offload engine keeps its operands hot by accessing
// them, and charging flash latency to a control message would be wrong).
func (tb *tierBackend) Call(now sim.Time, name string, args []byte) ([]byte, sim.Duration, sim.Duration, error) {
	return tb.inner.Call(now, name, args)
}

var _ transport.Backend = (*tierBackend)(nil)
