// Package cache implements Mira's configurable local-cache sections (§4.2,
// §5.3). A Section caches far-memory data in lines of a configurable size
// with one of three structures — direct-mapped, K-way set-associative, or
// fully-associative — and supports the program-guided mechanisms the
// compiler emits: eviction hints (mark-evictable + prefer-evictable victim
// selection) and dirty-line write-back.
//
// Sections are purely mechanical: they track lines, choose victims, and
// count events. They perform no I/O and charge no time; the runtime layer
// (internal/rt) moves bytes over the network and charges virtual time based
// on the events a Section reports.
package cache

import (
	"fmt"

	"mira/internal/sim"
)

// Structure selects a cache section's organization (§4.2 "determining cache
// section structure").
type Structure int

const (
	// Direct is a direct-mapped section: no conflict handling, cheapest
	// lookup. Chosen for sequential/strided patterns.
	Direct Structure = iota
	// SetAssoc is a K-way set-associative section with per-set LRU.
	SetAssoc
	// FullAssoc is a fully-associative section with active/inactive-list
	// approximate LRU (§5.3): best utilization, costliest lookup.
	FullAssoc
)

func (s Structure) String() string {
	switch s {
	case Direct:
		return "direct"
	case SetAssoc:
		return "set-assoc"
	case FullAssoc:
		return "full-assoc"
	default:
		return fmt.Sprintf("Structure(%d)", int(s))
	}
}

// Config describes one cache section.
type Config struct {
	// Name labels the section in profiles and plans (e.g. "nodes").
	Name string
	// Structure is the section's organization.
	Structure Structure
	// Ways is the associativity for SetAssoc sections (ignored
	// otherwise).
	Ways int
	// LineBytes is the cache line size: one or more data items (§4.2).
	LineBytes int
	// SizeBytes is the section's local-memory budget. The line count is
	// SizeBytes/LineBytes, minimum 1.
	SizeBytes int64
	// Stride is the far-address distance between the lines the section
	// is meant to hold, derived from the data: a section that caches one
	// field span of each element (lines narrower than the element) strides
	// by the element. A set-associative section indexes its sets by
	// tag/Stride, so consecutive elements land in consecutive sets. Zero
	// means LineBytes; otherwise it is a multiple of LineBytes.
	Stride int
}

// Validate reports an error for malformed configurations.
func (c Config) Validate() error {
	if c.LineBytes <= 0 {
		return fmt.Errorf("cache: section %q: LineBytes must be positive, got %d", c.Name, c.LineBytes)
	}
	if c.SizeBytes <= 0 {
		return fmt.Errorf("cache: section %q: SizeBytes must be positive, got %d", c.Name, c.SizeBytes)
	}
	if c.Stride < 0 || c.Stride%c.LineBytes != 0 {
		return fmt.Errorf("cache: section %q: Stride %d is not a multiple of LineBytes %d", c.Name, c.Stride, c.LineBytes)
	}
	if c.Structure == SetAssoc && c.Ways <= 0 {
		return fmt.Errorf("cache: section %q: set-associative section needs Ways >= 1, got %d", c.Name, c.Ways)
	}
	return nil
}

// Lines reports how many lines the configuration holds.
func (c Config) Lines() int {
	n := int(c.SizeBytes / int64(c.LineBytes))
	if n < 1 {
		n = 1
	}
	return n
}

// Scaled returns the configuration resized to scale × SizeBytes, rounded
// down to a whole number of lines and clamped to at least one line — the
// elastic-reclaim primitive: a tenant's section shrinks when its DRAM is
// lent out and regrows on reactivation, always remaining a valid section.
func (c Config) Scaled(scale float64) Config {
	out := c
	sz := int64(float64(c.SizeBytes) * scale)
	sz = sz / int64(c.LineBytes) * int64(c.LineBytes)
	if sz < int64(c.LineBytes) {
		sz = int64(c.LineBytes)
	}
	out.SizeBytes = sz
	return out
}

// Line is one resident cache line. The word-sized fields come first and the
// five flags share the last word: a section of narrow lines holds many slots
// (TestLineIs56Bytes).
type Line struct {
	// Tag is the far-memory address of the line's first byte (aligned to
	// LineBytes).
	Tag uint64
	// Data is the line's local copy; len(Data) == LineBytes.
	Data []byte
	// Ready (when an in-flight fetch lands; zero: none) and Spec below (an
	// untouched prefetch) are runtime-owned marks that the slot only carries.
	Ready sim.Time
	// lastUse is a logical timestamp for LRU within sets.
	lastUse uint64
	// Dirty records whether Data diverged from far memory.
	Dirty bool
	// Evictable is the compiler's eviction hint (§4.5): set after the
	// last access in a scope; victim selection prefers these lines.
	Evictable bool
	Spec      bool
	// Pinned keeps a fully-associative section from choosing the line as
	// its victim (the swap pool's demand page, while the prefetches its
	// fault issues claim slots). Other structures ignore it.
	Pinned bool
	// valid distinguishes an occupied slot from an empty one.
	valid bool
}

// Victim describes an evicted line the caller must handle: if Dirty, its
// bytes must be written back to far memory.
//
// Who owns Data: a section makes each line buffer once and recycles it. A
// clean victim's buffer stays the section's — Data may be read until the next
// Reserve on the section and must not be written or kept. A dirty victim's
// buffer moves to the caller, who holds the only copy of those bytes for as
// long as it needs them (rt parks it in the write-back queue as is) and gives
// it back with Recycle once they are safe in far memory; a buffer that never
// comes back is only garbage, the section makes another.
type Victim struct {
	Tag   uint64
	Data  []byte
	Dirty bool
	Spec  bool // the leaving line's speculative mark (see Line)
	// Conflict reports whether the eviction happened with spare capacity
	// elsewhere in the section (i.e. a mapping conflict rather than
	// capacity pressure). Only meaningful for Direct/SetAssoc.
	Conflict bool
}

// Stats counts section events since creation (or the last Reset). The
// profiler turns these into the paper's "cache performance overhead" metric
// (§4.1).
type Stats struct {
	Hits        int64
	Misses      int64
	Evictions   int64
	Writebacks  int64 // dirty victims handed to the caller
	HintEvicts  int64 // victims chosen because they were marked evictable
	Conflicts   int64 // evictions with spare capacity elsewhere
	FlushedHint int64 // lines flushed early via eviction hints
}

// Section is a configured cache section. Implementations are not safe for
// concurrent use; simulated threads share one only between memory
// operations (internal/mtrun), so no access is interrupted partway through
// a line.
type Section interface {
	// Config returns the section's configuration.
	Config() Config
	// Lookup finds the line holding far address addr. On a hit it
	// returns the line and true after updating recency.
	Lookup(addr uint64) (*Line, bool)
	// Peek is Lookup without recency or stats side effects.
	Peek(addr uint64) (*Line, bool)
	// Touch refreshes the recency of addr's line, if resident, as a hit
	// would, without counting one: a prefetch that finds its line present
	// keeps it from aging out before the access it announces. A
	// direct-mapped section has no victim choice, so its Touch does
	// nothing.
	Touch(addr uint64)
	// Reserve allocates a slot for the line containing addr and returns
	// it with zeroed Data — a recycled buffer is cleared, because selective
	// fetches fill only field ranges and write-only allocation fills
	// nothing — plus the victim it displaced (Victim.Data nil if none).
	// The caller fills Data and must write back dirty victims. Reserve
	// panics if addr's line is already resident — callers always Lookup
	// first. A full fully-associative section whose every line is Pinned
	// has no victim: Reserve returns a nil line and claims nothing.
	Reserve(addr uint64) (*Line, Victim)
	// Spare lends a zeroed line buffer from the section's stock, for a copy
	// of a line that stays resident (an early flush parks one in the
	// write-back queue). Recycle returns it, or a dirty victim's buffer
	// (see Victim), for reuse by a later Reserve; buffers of another length
	// are ignored.
	Spare() []byte
	Recycle(buf []byte)
	// MarkEvictable applies an eviction hint to addr's line if resident.
	MarkEvictable(addr uint64) bool
	// Drop invalidates addr's line if resident and returns it as a
	// victim so the caller can write back dirty data. Used by early
	// flush (§4.5) and by section teardown at lifetime end.
	Drop(addr uint64) (Victim, bool)
	// ForEachResident visits every valid line. Used by flush-on-offload
	// (§4.8) and section teardown.
	ForEachResident(fn func(*Line))
	// Stats returns a copy of the section's counters.
	Stats() Stats
	// ResetStats zeroes the counters (profiling rounds).
	ResetStats()
}

// base is what the three structures share: the configuration, the slots —
// taken from the process's free list (slotCache) and handed back to it by
// Release — the stock of line buffers, the counters and the recency clock.
// Every Line.Data comes from Spare and returns through retire (a clean line
// leaving) or Recycle (the caller done with a dirty victim).
type base struct {
	cfg   Config
	slots []Line
	free  [][]byte
	stats Stats
	tick  uint64
}

// newBase takes n cleared slots for cfg's lines.
func newBase(cfg Config, n int) base {
	s := slotCache.take(n)
	return base{cfg: cfg, slots: s.slots, free: s.stock[:0]}
}

func (b *base) Config() Config { return b.cfg }
func (b *base) Stats() Stats   { return b.stats }
func (b *base) ResetStats()    { b.stats = Stats{} }

// ForEachResident visits the occupied slots in slot order (a
// fully-associative section walks its lists instead).
func (b *base) ForEachResident(fn func(*Line)) {
	for i := range b.slots {
		if b.slots[i].valid {
			fn(&b.slots[i])
		}
	}
}

// Spare returns a zeroed line buffer: from the stock, else one an earlier
// section left the process's free list, else a new one. Reserve calls it
// before it retires the victim, which is what keeps a clean Victim.Data
// readable until the next Reserve.
func (b *base) Spare() []byte {
	var buf []byte
	if n := len(b.free); n > 0 {
		buf = b.free[n-1]
		b.free = b.free[:n-1]
	} else if buf = slotCache.buffer(b.cfg.LineBytes); buf == nil {
		return make([]byte, b.cfg.LineBytes)
	}
	clear(buf)
	return buf
}

// retire describes the line leaving l's slot, keeping its buffer when clean.
func (b *base) retire(l *Line) Victim {
	if !l.Dirty {
		b.free = append(b.free, l.Data)
	}
	return Victim{Tag: l.Tag, Data: l.Data, Dirty: l.Dirty, Spec: l.Spec}
}

// evict retires l as Reserve's victim and counts it.
func (b *base) evict(l *Line) Victim {
	b.stats.Evictions++
	if l.Evictable {
		b.stats.HintEvicts++
	}
	if l.Dirty {
		b.stats.Writebacks++
	}
	return b.retire(l)
}

// drop retires l as Drop's victim and empties its slot.
func (b *base) drop(l *Line) Victim {
	if l.Evictable {
		b.stats.FlushedHint++
	}
	v := b.retire(l)
	*l = Line{}
	return v
}

// markEvictable is MarkEvictable on the line Peek found, if any.
func markEvictable(l *Line, ok bool) bool {
	if ok {
		l.Evictable = true
	}
	return ok
}

func (b *base) Recycle(buf []byte) {
	if len(buf) == b.cfg.LineBytes {
		b.free = append(b.free, buf)
	}
}

// New builds a Section from cfg.
func New(cfg Config) (Section, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch cfg.Structure {
	case Direct:
		return newDirect(cfg), nil
	case SetAssoc:
		return newSetAssoc(cfg), nil
	case FullAssoc:
		return newFullAssoc(cfg), nil
	default:
		return nil, fmt.Errorf("cache: unknown structure %v", cfg.Structure)
	}
}

// AlignDown returns the line-aligned base address for addr.
func AlignDown(addr uint64, lineBytes int) uint64 {
	if lineBytes&(lineBytes-1) == 0 {
		return addr &^ uint64(lineBytes-1) // a power of two: no division
	}
	return addr - addr%uint64(lineBytes)
}
