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
	// MinCount is the minimum times a transition must have been observed
	// before it is trusted (default 1: predict after one sighting, the
	// aggressive end — the stand-in for a trained model's recall).
	MinCount uint32
	// MaxEntries bounds each order's transition table (default 64 Ki
	// contexts — the table must hold a full recurrence period of the miss
	// stream, or FIFO eviction destroys pass N's contexts before pass N+1
	// replays them). Oldest-inserted contexts are evicted first,
	// deterministically. Capacity is paid for via the size tax in
	// PerMissOverhead.
	MaxEntries int
	// MaxSuccessors bounds the candidate next-deltas kept per context
	// (default 4). The lowest-count candidate is evicted first.
	MaxSuccessors int
}

func (c HistoryConfig) withDefaults() HistoryConfig {
	if c.Depth == 0 {
		c.Depth = 8
	}
	if c.MinCount == 0 {
		c.MinCount = 1
	}
	if c.MaxEntries == 0 {
		c.MaxEntries = 1 << 16
	}
	if c.MaxSuccessors == 0 {
		c.MaxSuccessors = 4
	}
	return c
}

// histEntry holds one context's observed next-deltas. Candidates live in
// insertion order (order slice) so argmax scans never touch map iteration
// order — determinism depends on it.
type histEntry struct {
	count map[int64]uint32
	order []int64
	total uint32
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
	// tables[k] holds the order-(k+1) contexts; fifos mirror insertion
	// order for bounded eviction. Each order shares the MaxEntries bound.
	tables [3]map[uint64]*histEntry
	fifos  [3]ring
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
		h.tables[i] = map[uint64]*histEntry{}
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
	h.recordAt(2, ctxKey(d1, d2, d3), d)
	h.recordAt(1, ctxKey(0, d2, d3), d)
	h.recordAt(0, ctxKey(0, 0, d3), d)
}

// recordAt counts successor d under key k in the order-(idx+1) table,
// inserting (with bounded FIFO eviction) as needed.
func (h *History) recordAt(idx int, k uint64, d int64) {
	e := h.tables[idx][k]
	if e == nil {
		if len(h.tables[idx]) >= h.cfg.MaxEntries {
			// Evict the oldest context still resident.
			for h.fifos[idx].len() > 0 {
				old := h.fifos[idx].pop()
				if _, ok := h.tables[idx][old]; ok {
					delete(h.tables[idx], old)
					break
				}
			}
		}
		e = &histEntry{count: map[int64]uint32{}}
		h.tables[idx][k] = e
		h.fifos[idx].push(k)
	}
	h.bump(e, d)
}

// bump counts successor d in entry e, evicting the weakest successor when
// the per-context bound is hit.
func (h *History) bump(e *histEntry, d int64) {
	if _, seen := e.count[d]; !seen {
		if len(e.order) >= h.cfg.MaxSuccessors {
			// Evict the lowest-count successor (earliest-inserted on
			// ties) to make room.
			vi := 0
			for i := 1; i < len(e.order); i++ {
				if e.count[e.order[i]] < e.count[e.order[vi]] {
					vi = i
				}
			}
			victim := e.order[vi]
			e.total -= e.count[victim]
			delete(e.count, victim)
			e.order = append(e.order[:vi], e.order[vi+1:]...)
		}
		e.order = append(e.order, d)
	}
	e.count[d]++
	e.total++
}

// predict returns the confident next delta for the cascade of contexts
// ending in (d1,d2,d3), longest first, or false. A candidate must hold a
// strict majority of its context's observations and at least MinCount
// sightings. Ties on count break toward the earliest-inserted candidate —
// deterministic by construction.
func (h *History) predict(d1, d2, d3 int64) (int64, bool) {
	if d, ok := confident(h.tables[2][ctxKey(d1, d2, d3)], h.cfg.MinCount); ok {
		return d, true
	}
	if d, ok := confident(h.tables[1][ctxKey(0, d2, d3)], h.cfg.MinCount); ok {
		return d, true
	}
	return confident(h.tables[0][ctxKey(0, 0, d3)], h.cfg.MinCount)
}

// confident extracts an entry's majority successor if it clears the
// confidence thresholds.
func confident(e *histEntry, minCount uint32) (int64, bool) {
	if e == nil || len(e.order) == 0 {
		return 0, false
	}
	best := e.order[0]
	for _, d := range e.order[1:] {
		if e.count[d] > e.count[best] {
			best = d
		}
	}
	c := e.count[best]
	if c < minCount || 2*c <= e.total {
		return 0, false
	}
	return best, true
}

// observe folds one unit of the true access stream — a demand miss or the
// first touch of a prefetched unit — into the context, learns the new
// transition, and chains confident predictions from the updated context.
// have counts how much context has accumulated: 0 = no anchor yet, then
// one per observed delta up to the full order-3 context at 4.
func (h *History) observe(unit int64) []int64 {
	if h.have == 0 {
		h.have, h.last = 1, unit
		return nil
	}
	d := unit - h.last
	if d == 0 {
		// Re-observation of the same unit carries no transition.
		return nil
	}
	h.last = unit
	switch h.have {
	case 1: // first delta observed
		h.d3, h.have = d, 2
		return nil
	case 2: // second delta
		h.d2, h.d3, h.have = h.d3, d, 3
		return nil
	case 3: // context complete; nothing to record yet
		h.d1, h.d2, h.d3, h.have = h.d2, h.d3, d, 4
	default: // full context: learn history -> d, then shift
		h.record(h.d1, h.d2, h.d3, d)
		h.d1, h.d2, h.d3 = h.d2, h.d3, d
	}
	out := make([]int64, 0, h.cfg.Depth)
	d1, d2, d3, at := h.d1, h.d2, h.d3, unit
	for len(out) < h.cfg.Depth {
		d, ok := h.predict(d1, d2, d3)
		if !ok {
			break
		}
		at += d
		out = append(out, at)
		d1, d2, d3 = d2, d3, d
	}
	if len(out) == 0 {
		return nil
	}
	// Proposals already resident or in flight are filtered by the plane, so
	// re-proposing a chain's tail on every observation is cheap and keeps
	// the runahead window topped up.
	return out
}

// OnMiss observes a demand miss.
func (h *History) OnMiss(unit int64) []int64 { return h.observe(unit) }

// OnPrefetchedTouch observes the first demand touch of a prefetched unit
// (StreamTopUp), keeping the model trained on the full access stream.
func (h *History) OnPrefetchedTouch(unit int64) []int64 { return h.observe(unit) }
