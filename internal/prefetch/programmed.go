package prefetch

import "mira/internal/sim"

// DefaultWindow bounds a programmed runner's in-flight units: the window
// Build gives it, and NewProgrammed's for a window that is not positive.
const DefaultWindow = 64

// Programmed is 3PO-style programmed prefetch: the compiler hands the
// runtime the program's exact future access sequence (lowered from the
// IR's affine loop summaries to plane units by analysis.AccessProgram),
// and a runner walks it arbitrarily far ahead of the fault path, keeping a
// bounded window of units in flight. The runner is event-clocked: a demand
// miss re-anchors the cursor at the faulting unit and fills the window,
// and each first touch of a speculatively fetched unit (StreamTopUp)
// advances the consumption point and tops the window back up once half of
// it has drained — so a covered stream takes one cold miss and then
// sustains itself on touch events, with top-up batches big enough to
// amortize the doorbell.
//
// Accesses the access program does not cover (indirect chases the static
// analysis gave up on) simply miss through to the demand path — programmed
// prefetch is exact where it speaks and silent where it cannot.
type Programmed struct {
	program []int64 // future unit sequence, consecutive duplicates collapsed
	window  int
	// baseWindow is the configured (pre-clamp) window; CapWindow re-derives
	// the effective window from it when the plane's capacity changes.
	baseWindow int
	cursor     int // index of the first unit not yet proposed
	// consumed is the index just past the last unit the demand stream
	// reached (miss or prefetched-touch); cursor-consumed is the in-flight
	// window occupancy.
	consumed int
}

// NewProgrammed builds a runner over the future unit sequence. The
// sequence is consumed in order; consecutive duplicates are collapsed so a
// whole line/page of element accesses costs one entry.
func NewProgrammed(program []int64, window int) *Programmed {
	if window <= 0 {
		window = DefaultWindow
	}
	dedup := make([]int64, 0, len(program))
	for _, u := range program {
		if n := len(dedup); n > 0 && dedup[n-1] == u {
			continue
		}
		dedup = append(dedup, u)
	}
	return &Programmed{program: dedup, window: window, baseWindow: window}
}

func (*Programmed) Name() string { return "programmed" }

// CapWindow re-derives the effective in-flight window for a plane currently
// holding capacityUnits units: the configured window, clamped to half the
// capacity (the installers' clamp rule). Elastic resizes call this so a
// shrunken section is never thrashed by a window sized for the bound
// capacity — and a regrown section gets its configured window back.
func (p *Programmed) CapWindow(capacityUnits int) {
	w := p.baseWindow
	if half := capacityUnits / 2; half >= 1 && w > half {
		w = half
	}
	p.window = w
}

// Window reports the current effective in-flight window.
func (p *Programmed) Window() int { return p.window }

// resyncHorizon bounds how far past the cursor a miss may land and still
// re-anchor the runner (covers eviction-induced re-misses slightly behind
// or ahead of the cursor without scanning the whole program).
const resyncHorizon = 4096

// OnMiss re-anchors the cursor at the faulting unit's position in the
// program and proposes the next Window units. A miss the program never
// mentions (an uncovered indirect access) leaves the cursor alone and
// proposes nothing.
func (p *Programmed) OnMiss(unit int64, out []int64) []int64 {
	// The common case is the miss landing exactly at or just past the
	// cursor (the first unit beyond the previous window). Scan forward a
	// bounded horizon; fall back to a bounded backward scan for re-misses
	// of evicted units behind the cursor.
	at := -1
	limit := p.cursor + resyncHorizon
	if limit > len(p.program) {
		limit = len(p.program)
	}
	for i := p.cursor; i < limit; i++ {
		if p.program[i] == unit {
			at = i
			break
		}
	}
	if at < 0 {
		back := p.cursor - resyncHorizon
		if back < 0 {
			back = 0
		}
		for i := p.cursor - 1; i >= back; i-- {
			if p.program[i] == unit {
				at = i
				break
			}
		}
	}
	if at < 0 {
		return out
	}
	p.consumed = at + 1
	p.cursor = p.consumed
	return p.fill(out)
}

// OnPrefetchedTouch advances the consumption point to the touched unit and
// refills the window once at least half of it has drained — batching the
// top-ups keeps the doorbell cost amortized over window/2 units.
func (p *Programmed) OnPrefetchedTouch(unit int64, out []int64) []int64 {
	at := -1
	for i := p.consumed; i < p.cursor; i++ {
		if p.program[i] == unit {
			at = i
			break
		}
	}
	if at < 0 {
		// A touch the in-flight window does not explain (a re-touched
		// stale speculative line): not ours to act on.
		return out
	}
	p.consumed = at + 1
	if p.cursor-p.consumed > p.window/2 {
		return out
	}
	return p.fill(out)
}

// fill appends units from the cursor to out until the in-flight window is
// full.
func (p *Programmed) fill(out []int64) []int64 {
	n := p.window - (p.cursor - p.consumed)
	if n <= 0 {
		return out
	}
	end := min(p.cursor+n, len(p.program))
	out = append(out, p.program[p.cursor:end]...)
	p.cursor = end
	return out
}

// PerMissOverhead is the cursor resync: a pointer chase into the access
// program, far cheaper than any table-based predictor.
func (*Programmed) PerMissOverhead() sim.Duration { return 20 * sim.Nanosecond }

// Len reports the (deduplicated) program length — zero means the analysis
// found nothing affine to lower and the policy will never propose.
func (p *Programmed) Len() int { return len(p.program) }
