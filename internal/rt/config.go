package rt

import (
	"fmt"

	"mira/internal/cache"
	"mira/internal/cluster"
	"mira/internal/netmodel"
	"mira/internal/swap"
)

// PlaceKind says where an object's data lives.
type PlaceKind int

const (
	// PlaceSwap runs the object through the generic swap section — the
	// initial configuration for every object (§3) and the fallback for
	// patterns analysis cannot decide.
	PlaceSwap PlaceKind = iota
	// PlaceSection assigns the object to a non-swap cache section with
	// compiled remote accesses.
	PlaceSection
	// PlaceLocal pins the object in local memory (stack data, objects
	// the planner decides fit locally).
	PlaceLocal
)

func (k PlaceKind) String() string {
	switch k {
	case PlaceSwap:
		return "swap"
	case PlaceSection:
		return "section"
	case PlaceLocal:
		return "local"
	default:
		return fmt.Sprintf("PlaceKind(%d)", int(k))
	}
}

// Placement maps one object to its home.
type Placement struct {
	Kind PlaceKind
	// Section indexes Config.Sections when Kind == PlaceSection.
	Section int
}

// SectionSpec configures one non-swap cache section (§4.2's outputs: line
// size, structure, size, communication method, selective-transmission field
// set).
type SectionSpec struct {
	Cache cache.Config
	// TwoSided selects message-based communication; required for
	// selective (partial-structure) transmission (§4.7).
	TwoSided bool
	// SelectiveFields names the fields actually accessed in the
	// section's scope; when non-empty and TwoSided, misses fetch only
	// these byte ranges of each element (§4.5 selective transmission).
	// Write-backs likewise push only these ranges.
	SelectiveFields []string
	// Compress ships the section's lines ByteRun-compressed on the wire
	// and delta-encodes dirty write-backs against the last-fetched
	// snapshot of each line. A per-section knob: the planner turns it on
	// only where sampled compressibility and link occupancy say it pays.
	Compress bool
}

// Config assembles a runtime configuration: the local-memory budget and how
// it is carved into the swap pool and the cache sections. The planner emits
// Configs; tests build them by hand.
type Config struct {
	// LocalBudget is the application's total local memory in bytes (the
	// x-axis of most of the paper's figures).
	LocalBudget int64
	// SwapPool is the byte budget of the generic swap section.
	SwapPool int64
	// Sections are the non-swap cache sections.
	Sections []SectionSpec
	// Placements maps object names to homes; unmapped objects default
	// to PlaceSwap.
	Placements map[string]Placement
	// Cost is the local cost model.
	Cost CostModel
	// Net is the interconnect cost model.
	Net netmodel.Config
	// SwapCfg overrides the swap fault-path costs (zero value: defaults
	// from swap.DefaultConfig).
	SwapCfg swap.Config
	// SwapCompress ships swap pages ByteRun-compressed on the wire (the
	// page-granular analogue of SectionSpec.Compress).
	SwapCompress bool
	// Profiling enables the compiler-inserted probes' cost accounting.
	Profiling bool
	// WritebackQueueLines bounds each section's asynchronous write-back
	// queue: dirty victims park there and drain in background simulated
	// time as coalesced vectored writes, so a miss stops paying the
	// victim's write latency unless the queue is full. Zero means
	// DefaultWritebackQueueLines; negative disables the pipeline (dirty
	// victims write back immediately on the miss path).
	WritebackQueueLines int
	// Cluster is the pool of far nodes the runtime runs over: sections and
	// the swap heap are placed across it, the data path routes per
	// placement entry, and fault domains (Cluster.Faults) and the
	// resilience policy (Cluster.Policy) are per node. Nil is a one-node
	// pool (see New). Cluster.Net defaults to Config.Net.
	Cluster *cluster.Options
}

// Validate checks structural sanity and that the carve-up fits the budget.
func (c Config) Validate() error {
	if c.LocalBudget <= 0 {
		return fmt.Errorf("rt: LocalBudget must be positive, got %d", c.LocalBudget)
	}
	if err := c.Net.Validate(); err != nil {
		return err
	}
	for i, s := range c.Sections {
		if err := s.Cache.Validate(); err != nil {
			return fmt.Errorf("rt: section %d: %w", i, err)
		}
	}
	if total := c.CarveUpBytes(); total > c.LocalBudget {
		return fmt.Errorf("rt: sections+swap use %d bytes, budget is %d", total, c.LocalBudget)
	}
	for name, pl := range c.Placements {
		if pl.Kind == PlaceSection && (pl.Section < 0 || pl.Section >= len(c.Sections)) {
			return fmt.Errorf("rt: object %q placed in section %d of %d", name, pl.Section, len(c.Sections))
		}
	}
	if c.Cluster != nil && c.Cluster.Nodes < 1 {
		return fmt.Errorf("rt: cluster with %d nodes", c.Cluster.Nodes)
	}
	return nil
}

// CarveUpBytes is the local memory the configuration hands out: the swap pool
// plus every section, byte for byte as requested. Validate and Bind hold it
// against LocalBudget.
func (c Config) CarveUpBytes() int64 {
	total := c.SwapPool
	for _, s := range c.Sections {
		total += s.Cache.SizeBytes
	}
	return total
}

// Geometry states what New and Bind build from c's byte sizes: a copy of c
// with each section's SizeBytes floored to whole lines as cache.Config.Lines
// floors it (at least one line) and SwapPool floored to whole pages as
// swap.Config.Pages floors it for swap.New (at least one page; a pool that is
// not positive is no pool and stays as it is). Apart from the budget checks,
// which read CarveUpBytes, nothing in rt, cache or swap reads the sizes any
// other way (TestRawSizeReaders), so two configurations with equal Geometry
// and equal CarveUpBytes build the same caches and run the same program to
// the same clock, counters and bytes (TestEqualGeometryRunsIdentically).
//
// That holds for runs that never call SetSectionScale: cache.Config.Scaled
// multiplies the raw SizeBytes before it floors, so an elastic rescale can
// tell apart two sizes that Geometry cannot.
func (c Config) Geometry() Config {
	g := c
	if c.SwapPool > 0 {
		g.SwapPool = int64(swap.Config{PoolBytes: c.SwapPool}.Pages()) * swap.PageBytes
	}
	g.Sections = make([]SectionSpec, len(c.Sections))
	for i, s := range c.Sections {
		if s.Cache.LineBytes > 0 { // an invalid section is left for Validate to name
			s.Cache.SizeBytes = int64(s.Cache.Lines()) * int64(s.Cache.LineBytes)
		}
		g.Sections[i] = s
	}
	return g
}

// writebackQueueLimit resolves the WritebackQueueLines knob: zero defaults,
// negative disables.
func (c Config) writebackQueueLimit() int {
	switch {
	case c.WritebackQueueLines < 0:
		return 0
	case c.WritebackQueueLines == 0:
		return DefaultWritebackQueueLines
	default:
		return c.WritebackQueueLines
	}
}

// effectiveSwapCfg is the swap section's configuration for a pool of the
// given size: SwapCfg with swap.DefaultConfig's fault-path costs filled in
// when the caller left them zero, and the run's interconnect when SwapCfg
// names none.
func (c Config) effectiveSwapCfg(pool int64) swap.Config {
	sc := c.SwapCfg
	sc.PoolBytes = pool
	if sc.MajorFaultOverhead == 0 {
		d := swap.DefaultConfig(pool)
		sc.MajorFaultOverhead = d.MajorFaultOverhead
		sc.MinorFaultOverhead = d.MinorFaultOverhead
	}
	if sc.Net.BytesPerSecond == 0 {
		sc.Net = c.Net // batched-prefetch readiness staggering
	}
	return sc
}
