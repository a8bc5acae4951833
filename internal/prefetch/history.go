package prefetch

import "mira/internal/sim"

// HistoryConfig tunes the online history prefetcher. Zero values select
// the defaults noted per field.
type HistoryConfig struct {
	// Depth is how many predictions are chained per observation (default
	// 8). Runahead distance trades timeliness against accuracy: a
	// predicted unit arrives roughly one fetch RTT after its chain is
	// issued, so short chains arrive late — but per-step confidence
	// compounds, so long chains are increasingly wrong and pollute the
	// cache they feed.
	Depth int
	// MaxEntries bounds each order's transition table (default 64 Ki
	// contexts — the table must hold a full recurrence period of the miss
	// stream, or FIFO eviction destroys pass N's contexts before pass N+1
	// replays them). Oldest-inserted contexts are evicted first,
	// deterministically. Capacity is paid for via the size tax in
	// PerMissOverhead.
	MaxEntries int
}

func (c HistoryConfig) withDefaults() HistoryConfig {
	if c.Depth == 0 {
		c.Depth = 8
	}
	if c.MaxEntries == 0 {
		c.MaxEntries = 1 << 16
	}
	return c
}

// maxSuccessors bounds the candidate next-deltas kept per context; the
// lowest-count candidate is evicted first.
const maxSuccessors = 4

// histEntry is one context's slot: its key and its observed next-deltas,
// inline in insertion order with their counts, so argmax scans depend on
// nothing but that order — determinism depends on it.
type histEntry struct {
	key   uint64
	succ  [maxSuccessors]int64
	count [maxSuccessors]uint32
	n     int32 // successors held
	total uint32
}

// histTable is one order's bounded context table: a slab of slots and an
// index from context key to slot. The slab fills in insertion order; once
// it holds MaxEntries contexts, a new context takes the slot at the cursor
// next — the oldest one's — and the cursor moves on, so a cursor lapping
// the slots is exactly FIFO eviction.
type histTable struct {
	index map[uint64]int32
	slab  []histEntry
	next  int
}

// lookup returns the context's slot, or nil.
func (t *histTable) lookup(k uint64) *histEntry {
	if i, ok := t.index[k]; ok {
		return &t.slab[i]
	}
	return nil
}

// entry returns the context's slot, inserting an empty one — into the
// oldest context's slot once the slab is full — when k is new. The slab
// grows by doubling up to maxEntries.
func (t *histTable) entry(k uint64, maxEntries int) *histEntry {
	if e := t.lookup(k); e != nil {
		return e
	}
	i := len(t.slab)
	switch {
	case i < cap(t.slab):
		t.slab = t.slab[:i+1]
	case i < maxEntries:
		grown := make([]histEntry, i+1, min(max(2*i, 16), maxEntries))
		copy(grown, t.slab)
		t.slab = grown
	default:
		i = t.next
		delete(t.index, t.slab[i].key)
		if t.next++; t.next == len(t.slab) {
			t.next = 0
		}
	}
	t.slab[i] = histEntry{key: k}
	t.index[k] = int32(i)
	return &t.slab[i]
}

// History is the online delta/Markov prefetcher: a deterministic
// table-based stand-in for the DL-driven far-memory predictors. It keys
// delta contexts (the last miss deltas) to the observed next-delta
// distribution in a variable-order cascade — an order-3 context first
// (long contexts rarely collide, so repeated irregular sequences
// disambiguate), then order-2, then order-1 (which locks onto plain
// strides after a single sighting). On each observation it chains up to
// Depth confident predictions.
//
// History implements StreamTopUp: the first demand touch of a prefetched
// unit feeds the same observe path as a miss. This matters more than any
// table detail — a predictor trained on the *miss* stream chases a moving
// target (every prediction that hits deletes an access from the stream it
// learned, so pass two's contexts no longer match pass one's transitions).
// Observing touches trains on the full access stream, which is stationary,
// and keeps the live context aligned with what the program actually did.
// Touch-path table work is the runner thread's, off the access's critical
// path, so PerMissOverhead is charged on misses only.
//
// The table is bounded (FIFO context eviction, min-count successor
// eviction) and every lookup/update cost is charged to simulated time via
// PerMissOverhead, scaled with table size and chain depth.
type History struct {
	cfg HistoryConfig
	// tables[k] holds the order-(k+1) contexts. Each order shares the
	// MaxEntries bound.
	tables [3]histTable
	// context: the last three deltas (d1 oldest) and the last observed
	// unit (miss or prefetched touch).
	d1, d2, d3 int64
	have       int
	last       int64
	cost       sim.Duration
}

// NewHistory builds the predictor.
func NewHistory(cfg HistoryConfig) *History {
	cfg = cfg.withDefaults()
	// Cost model: up to three hashed table probes (the order cascade) per
	// chained prediction plus one update per table, each ~25 ns of
	// metadata work, plus ~2 ns per doubling of table capacity (larger
	// tables, worse cache behavior). Fixed at construction so the charge
	// is identical on every miss.
	probes := sim.Duration(3*cfg.Depth+3) * 25 * sim.Nanosecond
	var sizeTax sim.Duration
	for n := cfg.MaxEntries; n > 1; n /= 2 {
		sizeTax += 2 * sim.Nanosecond
	}
	h := &History{cfg: cfg, cost: probes + sizeTax}
	for i := range h.tables {
		h.tables[i].index = map[uint64]int32{}
	}
	return h
}

func (*History) Name() string { return "history" }

// PerMissOverhead charges the table probes for one miss: up to three
// lookups per chained prediction plus the updates and the size-dependent
// tax.
func (h *History) PerMissOverhead() sim.Duration { return h.cost }

// ctxKey mixes up to three deltas into one table key (unused positions
// zero; each position is scrambled by a distinct odd constant so contexts
// of different orders live in different tables without aliasing inside
// one).
func ctxKey(d1, d2, d3 int64) uint64 {
	return uint64(d1)*0x9e3779b97f4a7c15 ^ uint64(d2)*0xc2b2ae3d27d4eb4f ^ uint64(d3)
}

// record observes transition history -> d at every context order:
// (d1,d2,d3) in the order-3 table, (d2,d3) in order-2, d3 in order-1.
func (h *History) record(d1, d2, d3, d int64) {
	h.tables[2].entry(ctxKey(d1, d2, d3), h.cfg.MaxEntries).bump(d)
	h.tables[1].entry(ctxKey(0, d2, d3), h.cfg.MaxEntries).bump(d)
	h.tables[0].entry(ctxKey(0, 0, d3), h.cfg.MaxEntries).bump(d)
}

// bump counts successor d, evicting the weakest successor when all
// maxSuccessors slots are taken.
func (e *histEntry) bump(d int64) {
	i := 0
	for i < int(e.n) && e.succ[i] != d {
		i++
	}
	if i == int(e.n) {
		if e.n == maxSuccessors {
			// Evict the lowest-count successor (earliest-inserted on
			// ties) to make room.
			vi := 0
			for j := 1; j < maxSuccessors; j++ {
				if e.count[j] < e.count[vi] {
					vi = j
				}
			}
			e.total -= e.count[vi]
			copy(e.succ[vi:], e.succ[vi+1:])
			copy(e.count[vi:], e.count[vi+1:])
			i--
		} else {
			e.n++
		}
		e.succ[i], e.count[i] = d, 0
	}
	e.count[i]++
	e.total++
}

// predict returns the confident next delta for the cascade of contexts
// ending in (d1,d2,d3), longest first, or false.
func (h *History) predict(d1, d2, d3 int64) (int64, bool) {
	if d, ok := h.tables[2].lookup(ctxKey(d1, d2, d3)).confident(); ok {
		return d, true
	}
	if d, ok := h.tables[1].lookup(ctxKey(0, d2, d3)).confident(); ok {
		return d, true
	}
	return h.tables[0].lookup(ctxKey(0, 0, d3)).confident()
}

// leader is the entry's highest-count successor — the earliest-inserted on
// ties, deterministic by construction — and its count.
func (e *histEntry) leader() (int64, uint32) {
	best := 0
	for i := 1; i < int(e.n); i++ {
		if e.count[i] > e.count[best] {
			best = i
		}
	}
	return e.succ[best], e.count[best]
}

// confident extracts an entry's leader if it holds a strict majority of
// the context's observations.
func (e *histEntry) confident() (int64, bool) {
	if e == nil {
		return 0, false
	}
	d, c := e.leader()
	if 2*c <= e.total {
		return 0, false
	}
	return d, true
}

// observe folds one unit of the true access stream — a demand miss or the
// first touch of a prefetched unit — into the context, learns the new
// transition, and appends confident predictions chained from the updated
// context to out. have counts how much context has accumulated: 0 = no
// anchor yet, then one per observed delta up to the full order-3 context
// at 4.
func (h *History) observe(unit int64, out []int64) []int64 {
	if h.have == 0 {
		h.have, h.last = 1, unit
		return out
	}
	d := unit - h.last
	if d == 0 {
		// Re-observation of the same unit carries no transition.
		return out
	}
	h.last = unit
	switch h.have {
	case 1: // first delta observed
		h.d3, h.have = d, 2
		return out
	case 2: // second delta
		h.d2, h.d3, h.have = h.d3, d, 3
		return out
	case 3: // context complete; nothing to record yet
		h.d1, h.d2, h.d3, h.have = h.d2, h.d3, d, 4
	default: // full context: learn history -> d, then shift
		h.record(h.d1, h.d2, h.d3, d)
		h.d1, h.d2, h.d3 = h.d2, h.d3, d
	}
	// Proposals already resident or in flight are filtered by the plane, so
	// re-proposing a chain's tail on every observation is cheap and keeps
	// the runahead window topped up.
	d1, d2, d3, at := h.d1, h.d2, h.d3, unit
	for range h.cfg.Depth {
		d, ok := h.predict(d1, d2, d3)
		if !ok {
			break
		}
		at += d
		out = append(out, at)
		d1, d2, d3 = d2, d3, d
	}
	return out
}

// OnMiss observes a demand miss.
func (h *History) OnMiss(unit int64, out []int64) []int64 { return h.observe(unit, out) }

// OnPrefetchedTouch observes the first demand touch of a prefetched unit
// (StreamTopUp), keeping the model trained on the full access stream.
func (h *History) OnPrefetchedTouch(unit int64, out []int64) []int64 {
	return h.observe(unit, out)
}
