// Package cluster shards the far-memory pool across N far nodes, each with
// its own farmem.Node, resilient transport, independent network link, and
// independent fault domain. The runtime talks to a single Pool through the
// transport.Link interface; the Pool routes every operation to the owning
// node(s) via an explicit, serializable placement table.
//
// Placement is deterministic capacity-weighted rendezvous hashing: each
// allocation (a cache section placed whole, or a large allocation striped
// at StripeBytes) ranks the nodes by a seeded hash score scaled by node
// capacity, and the top R become primary + replicas. Writes fan out to
// every home synchronously; reads are served by the primary and fail over
// to replicas when the primary's circuit breaker is open, the read fails,
// or the node has lost its memory (crash-wipe). A wiped node is re-synced
// from a healthy replica and read-repair pushes correct bytes back to a
// reachable primary that served a bad read.
package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"

	"mira/internal/codec"
	"mira/internal/farmem"
	"mira/internal/faults"
	"mira/internal/netmodel"
	"mira/internal/trace"
	"mira/internal/transport"
)

// DefaultStripeBytes is the striping granularity for large allocations
// (the swap heap): big enough that per-stripe metadata is negligible,
// small enough that a multi-megabyte heap spreads across every node.
const DefaultStripeBytes = 1 << 20

// Options configures a far-memory cluster.
type Options struct {
	// Nodes is the far-node count N (minimum 1).
	Nodes int
	// Replicas is the replication factor R: every placement gets
	// min(R, N) homes. R <= 1 means no replication.
	Replicas int
	// Seed drives the placement hash. Same seed, same allocation
	// sequence, same placement table.
	Seed uint64
	// StripeBytes is the striping granularity for plain allocations.
	// Zero means DefaultStripeBytes. Sections are never striped: a
	// section lives whole on its home node so per-section routing is a
	// single-link operation.
	StripeBytes uint64
	// NodeCfg configures every far node. Capacities overrides the
	// capacity per node when non-nil (skewed clusters); len(Capacities)
	// must equal Nodes.
	NodeCfg    farmem.NodeConfig
	Capacities []uint64
	// Net is the per-link cost model. Every node gets its own
	// netmodel.Bandwidth accountant, so traffic to different nodes is
	// charged on independent links and sharding is a real speedup.
	Net netmodel.Config
	// Policy is the per-node resilience policy (nil = transport default).
	// Each node's jitter stream is decorrelated from its peers'.
	Policy *transport.Policy
	// Faults holds one fault config per node (nil entries = no faults on
	// that node). Shorter slices leave the remaining nodes fault-free.
	Faults []*faults.Config
	// Tier enables the simulated SSD capacity tier on every node (nil =
	// DRAM only). The tier sits between the fault injector and the raw
	// node, so injected crashes wipe DRAM but not flash.
	Tier *TierConfig
}

func (o Options) stripe() uint64 {
	if o.StripeBytes == 0 {
		return DefaultStripeBytes
	}
	return o.StripeBytes
}

func (o Options) replicas() int {
	r := o.Replicas
	if r < 1 {
		r = 1
	}
	if r > o.Nodes {
		r = o.Nodes
	}
	return r
}

// Home is one placement of an entry: the owning node and the address of
// the bytes inside that node's address space. Homes[0] is the primary.
type Home struct {
	Node int    `json:"node"`
	Base uint64 `json:"base"`
}

// PlacementEntry is one row of the serializable placement table: a
// contiguous range of the pool's virtual address space and its homes.
type PlacementEntry struct {
	VBase   uint64 `json:"vbase"`
	Size    uint64 `json:"size"`
	Section uint16 `json:"section,omitempty"`
	Homes   []Home `json:"homes"`
}

// NodeStats are the per-node counters mira-run reports.
type NodeStats struct {
	Node           int
	Reads          int64 // segment reads served by this node
	Writes         int64 // segment writes landed on this node
	ReadBytes      int64
	WriteBytes     int64
	Failovers      int64 // reads this node should have served but a replica did
	Repairs        int64 // read-repair writes pushed back to this node
	Resyncs        int64 // placement ranges re-copied onto this node after a wipe
	ResyncBytes    int64
	AllocatedBytes uint64
	CapacityBytes  uint64
	Net            transport.Stats
	Faults         faults.Stats
	Tier           TierStats
}

// farNode is one member of the pool. Its stale flag and counters belong to
// the pool's data path, which — like the scratch below — has one caller at a
// time; only the allocated-bytes count is the table's, under Pool.mu.
type farNode struct {
	fm *farmem.Node
	tr *transport.T
	// link is tr as the pool drives it: every transport.Link call of
	// link.go goes through it, so a test can interpose on exactly what a
	// consumer of the node link sees.
	link  transport.Link
	inj   *faults.Injector // nil when the node is fault-free
	tier  *tierBackend     // nil when the node is DRAM-only
	stale bool             // memory wiped since the last re-sync
	stats NodeStats
}

// Pool is a sharded, replicated far-memory pool. It implements
// transport.Link (the timed data plane the runtime and swap cache drive)
// and the runtime's direct-store operations (Alloc/Read/Write). A runtime
// without a cluster runs on a one-node pool.
type Pool struct {
	opts Options

	// mu guards the placement table against allocation: a data-path
	// operation takes it once, to split its range (route).
	mu    sync.Mutex
	nodes []*farNode
	table []*PlacementEntry // sorted by VBase; entries are stable pointers
	next  uint64            // virtual bump pointer
	seq   uint64            // allocation sequence number, feeds the hash

	// Scratch of the data path, kept on the pool so a warm operation
	// allocates nothing: io is the segments of one Read, Write,
	// ReadOneSided or WriteOneSided; gather is gatherVec's, the reply buffer
	// included; scatter is scatterVec's. Unlike the table none of it is
	// guarded by mu: a link has one caller at a time.
	io      []seg
	gather  gatherScratch
	scatter scatterScratch

	// Tracing (nil when disabled — every use is nil-safe).
	trc       *trace.Buffer
	cFailover *trace.Counter
}

// wrapNodeLink, when a test sets it, wraps every node link a new pool's data
// path drives (transporttest.ScribbleLink). Nil outside tests.
var wrapNodeLink func(transport.Link) transport.Link

// New builds the pool: N far nodes, each behind its own transport and
// optional fault injector.
func New(opts Options) (*Pool, error) {
	if opts.Nodes < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 node, got %d", opts.Nodes)
	}
	if opts.Capacities != nil && len(opts.Capacities) != opts.Nodes {
		return nil, fmt.Errorf("cluster: %d capacities for %d nodes", len(opts.Capacities), opts.Nodes)
	}
	if len(opts.Faults) > opts.Nodes {
		return nil, fmt.Errorf("cluster: %d fault configs for %d nodes", len(opts.Faults), opts.Nodes)
	}
	p := &Pool{opts: opts, next: farmem.DefaultBase}
	for i := 0; i < opts.Nodes; i++ {
		cfg := opts.NodeCfg
		if opts.Capacities != nil {
			cfg.Capacity = opts.Capacities[i]
		}
		fm := farmem.NewNode(cfg)
		tr := transport.New(fm, opts.Net)
		if opts.Policy != nil {
			pol := *opts.Policy
			// Decorrelate the per-node jitter streams so simultaneous
			// retries against different nodes don't move in lockstep.
			pol.JitterSeed += uint64(i) * 0x9e3779b97f4a7c15
			tr.SetPolicy(pol)
		}
		n := &farNode{fm: fm, tr: tr, link: tr}
		if wrapNodeLink != nil {
			n.link = wrapNodeLink(tr)
		}
		n.stats.Node = i
		n.stats.CapacityBytes = cfg.Capacity
		// Backend chain, innermost out: node <- capacity tier <- fault
		// injector. The injector wraps the tier so a crash-wipe zeroes DRAM
		// while the tier's flash map survives.
		var be transport.Backend = transport.NewNodeBackend(fm)
		if opts.Tier != nil && opts.Tier.DRAMBytes > 0 {
			n.tier = newTierBackend(be, fm, *opts.Tier)
			be = n.tier
			tr.SetBackend(be)
		}
		if i < len(opts.Faults) && opts.Faults[i] != nil && opts.Faults[i].Enabled() {
			idx := i // wipe callback marks THIS node stale
			n.inj = faults.Wrap(be, func() {
				fm.WipeMemory()
				p.markStale(idx)
			}, *opts.Faults[i])
			tr.SetBackend(n.inj)
		}
		p.nodes = append(p.nodes, n)
	}
	p.gather.byNode = make([][]int, opts.Nodes)
	p.scatter.byNode = make([][]scatterPiece, opts.Nodes)
	return p, nil
}

// SetTrace attaches the deterministic tracing layer: a pool-level buffer for
// routing events (failover, re-sync) plus per-node transport tracing, so
// retries and breaker trips are attributed to the node that caused them.
func (p *Pool) SetTrace(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.trc = tr.Buffer("cluster")
	p.cFailover = tr.Registry().Counter("cluster.failovers")
	for i, n := range p.nodes {
		n.tr.SetTrace(tr, fmt.Sprintf("net.node%d", i))
		if n.tier != nil {
			n.tier.setTrace(tr.Registry())
		}
	}
}

// SetWireCodec installs a wire codec on every node link. The runtime flips
// it per section around each data-path operation, so one pool serves
// compressed and raw sections side by side.
func (p *Pool) SetWireCodec(id codec.ID) {
	for _, n := range p.nodes {
		n.tr.SetWireCodec(id)
	}
}

// WireCodec reports the codec currently installed on the node links.
func (p *Pool) WireCodec() codec.ID {
	if len(p.nodes) == 0 {
		return codec.None
	}
	return p.nodes[0].tr.WireCodec()
}

// markStale flags a node as having lost its memory. Called from the fault
// injector's wipe callback, inside the data-path operation that fired it.
func (p *Pool) markStale(i int) { p.nodes[i].stale = true }

// NodeStale reports whether node i's memory was wiped since the last
// re-sync — replicas homed there are unreadable until resynced. The offload
// engine uses it to detect a sub-offload's serving node dying mid-run.
func (p *Pool) NodeStale(i int) bool { return p.nodes[i].stale }

// splitmix64 is the placement hash: a full-avalanche mix of the seed and
// the placement key, so node ranking is uniform and deterministic.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rank orders the nodes for one placement key by capacity-weighted
// rendezvous score (highest first). Weighting by capacity makes expected
// load proportional to node size, so skewed clusters fill evenly.
func (p *Pool) rank(key uint64) []int {
	type scored struct {
		node  int
		score float64
	}
	sc := make([]scored, len(p.nodes))
	for i, n := range p.nodes {
		h := splitmix64(p.opts.Seed ^ splitmix64(key^uint64(i)))
		// u in (0,1); -cap/ln(u) is the classic weighted-rendezvous score.
		u := (float64(h>>11) + 0.5) / (1 << 53)
		w := float64(n.fm.Capacity())
		if w <= 0 {
			w = 1
		}
		sc[i] = scored{node: i, score: -w / math.Log(u)}
	}
	sort.Slice(sc, func(a, b int) bool {
		if sc[a].score != sc[b].score {
			return sc[a].score > sc[b].score
		}
		return sc[a].node < sc[b].node
	})
	out := make([]int, len(sc))
	for i, s := range sc {
		out[i] = s.node
	}
	return out
}

// place allocates size bytes on the top-R nodes for key, skipping nodes
// that are out of capacity. At least one home is required; fewer than R
// homes means degraded replication, not failure.
func (p *Pool) place(key, size uint64) ([]Home, error) {
	want := p.opts.replicas()
	var homes []Home
	for _, node := range p.rank(key) {
		base, err := p.nodes[node].fm.Alloc(size)
		if err != nil {
			continue // node full — rendezvous falls through to the next rank
		}
		homes = append(homes, Home{Node: node, Base: base})
		if len(homes) == want {
			break
		}
	}
	if len(homes) == 0 {
		return nil, fmt.Errorf("cluster: no node can hold %d bytes: %w", size, farmem.ErrOutOfMemory)
	}
	return homes, nil
}

// addEntry appends a placement row and keeps the table sorted by VBase.
// The bump allocator only grows, so append preserves order.
func (p *Pool) addEntry(e PlacementEntry) {
	p.table = append(p.table, &e)
	for i := range e.Homes {
		n := p.nodes[e.Homes[i].Node]
		n.stats.AllocatedBytes += e.Size
	}
}

const allocAlign = 8

// Alloc reserves size bytes of pool virtual address space, striped across
// the cluster at StripeBytes granularity. Each stripe is placed
// independently, so a large heap spreads over every node. The virtual
// range is contiguous; only the backing is sharded. A one-node pool places
// the allocation whole — stripes only spread a heap across nodes — so its
// every allocation is one entry that View answers in place.
func (p *Pool) Alloc(size uint64) (uint64, error) {
	if size == 0 {
		return 0, fmt.Errorf("cluster: zero-size allocation")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	stripe := p.opts.stripe()
	if len(p.nodes) == 1 {
		stripe = size
	}
	vbase := p.next
	for off := uint64(0); off < size; off += stripe {
		n := stripe
		if size-off < n {
			n = size - off
		}
		p.seq++
		key := splitmix64(p.seq)
		homes, err := p.place(key, n)
		if err != nil {
			return 0, err
		}
		p.addEntry(PlacementEntry{VBase: vbase + off, Size: n, Homes: homes})
	}
	p.next += (size + allocAlign - 1) / allocAlign * allocAlign
	return vbase, nil
}

// AllocSection places one cache section whole: the section ID is the
// placement key, so a section's home is stable for the life of the pool
// and every miss, eviction, flush, and offloaded procedure for that
// section routes to a single node.
func (p *Pool) AllocSection(sec uint16, size uint64) (uint64, error) {
	if size == 0 {
		return 0, fmt.Errorf("cluster: zero-size section %d", sec)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	key := splitmix64(uint64(sec) | 1<<32)
	homes, err := p.place(key, size)
	if err != nil {
		return 0, err
	}
	vbase := p.next
	p.addEntry(PlacementEntry{VBase: vbase, Size: size, Section: sec, Homes: homes})
	p.next += (size + allocAlign - 1) / allocAlign * allocAlign
	return vbase, nil
}

// Release frees every placement at once: each node hands its regions to the
// far side's free list (farmem.Node.Release) and the table is emptied, so
// every later access answers farmem.ErrUnmapped. The pool's counters keep
// what the run left in them.
func (p *Pool) Release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, n := range p.nodes {
		n.fm.Release()
	}
	p.table = nil
}

// seg is one piece of a pool operation that lands entirely inside one
// placement entry.
type seg struct {
	entry *PlacementEntry
	off   uint64 // offset inside the entry
	n     int    // byte count
	at    int    // offset inside the caller's buffer
}

// findEntry locates the placement row covering vaddr. Called with p.mu held.
func (p *Pool) findEntry(vaddr uint64) (*PlacementEntry, error) {
	i := sort.Search(len(p.table), func(i int) bool { return p.table[i].VBase > vaddr })
	if i == 0 {
		return nil, fmt.Errorf("cluster: %w: address %#x below every placement", farmem.ErrUnmapped, vaddr)
	}
	e := p.table[i-1]
	if vaddr >= e.VBase+e.Size {
		return nil, fmt.Errorf("cluster: %w: address %#x past entry [%#x,+%d)", farmem.ErrUnmapped, vaddr, e.VBase, e.Size)
	}
	return e, nil
}

// segments splits [vaddr, vaddr+n) into per-entry pieces, appended to out.
// Called with p.mu held.
func (p *Pool) segments(out []seg, vaddr uint64, n int) ([]seg, error) {
	at := 0
	for n > 0 {
		e, err := p.findEntry(vaddr)
		if err != nil {
			return nil, err
		}
		off := vaddr - e.VBase
		take := int(e.Size - off)
		if take > n {
			take = n
		}
		out = append(out, seg{entry: e, off: off, n: take, at: at})
		vaddr += uint64(take)
		n -= take
		at += take
	}
	return out, nil
}

// route splits [vaddr, vaddr+n) into the pool's io scratch, under the one
// lock a data-path operation takes. The result is valid until the next
// route.
func (p *Pool) route(vaddr uint64, n int) ([]seg, error) {
	p.mu.Lock()
	segs, err := p.segments(p.io[:0], vaddr, n)
	p.mu.Unlock()
	if err != nil {
		return nil, err
	}
	p.io = segs
	return segs, nil
}

// Table snapshots the placement table, sorted by virtual base.
func (p *Pool) Table() []PlacementEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PlacementEntry, len(p.table))
	for i, e := range p.table {
		out[i] = *e
		out[i].Homes = append([]Home(nil), e.Homes...)
	}
	return out
}

// TableJSON serializes the placement table. Byte-stable across runs with
// the same seed and allocation sequence — the determinism contract.
func (p *Pool) TableJSON() ([]byte, error) {
	return json.MarshalIndent(p.Table(), "", "  ")
}

// NodeCount returns N.
func (p *Pool) NodeCount() int { return len(p.nodes) }

// FarNode exposes node i's farmem.Node (tests, conformance suites).
func (p *Pool) FarNode(i int) *farmem.Node { return p.nodes[i].fm }

// Transport exposes node i's resilient transport.
func (p *Pool) Transport(i int) *transport.T { return p.nodes[i].tr }

// Backend exposes node i's transport backend — the fault injector when the
// node has a fault domain, the raw node backend otherwise.
func (p *Pool) Backend(i int) transport.Backend { return p.nodes[i].tr.Backend() }

// Injector exposes node i's fault injector (nil when fault-free).
func (p *Pool) Injector(i int) *faults.Injector { return p.nodes[i].inj }

// ShareBandwidth replaces every node link's bandwidth accountant with bw,
// so pools owned by different tenants contend for one compute-side NIC —
// the serving bottleneck — instead of each enjoying private links.
func (p *Pool) ShareBandwidth(bw *netmodel.Bandwidth) {
	for _, n := range p.nodes {
		n.tr.BW = bw
	}
}

// NodeStats snapshots the per-node counters, ordered by node ID.
func (p *Pool) NodeStats() []NodeStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]NodeStats, len(p.nodes))
	for i, n := range p.nodes {
		s := n.stats
		s.Net = n.tr.Stats()
		if n.inj != nil {
			s.Faults = n.inj.Stats()
		}
		if n.tier != nil {
			s.Tier = n.tier.Stats()
		}
		out[i] = s
	}
	return out
}
