// Package prefetch is the pluggable prefetcher zoo: one policy interface
// serving both data planes — the page-granular swap cache (internal/swap,
// units are 4 KB page numbers) and the line-granular cache sections
// (internal/rt, units are line indices within a section's address space).
// A policy observes the plane's demand-miss stream and proposes units to
// fetch speculatively; the plane filters residency, delays the advisory
// fetch by the policy's lookup cost, and issues the survivors through its
// existing batch/doorbell machinery. Prefetch is always advisory: a
// proposal the plane cannot honor (out of range, no evictable slot, far
// node unreachable) is dropped, never an error.
//
// Policies must be deterministic: same miss stream in, same proposals out,
// with no wall-clock or map-iteration dependence. That is what makes traces
// byte-reproducible across identical runs and policy races bisectable.
package prefetch

import (
	"fmt"
	"sort"

	"mira/internal/sim"
)

// Policy is the one interface both planes consume. OnMiss observes a
// demand miss on a unit (page number on the page plane, line index on the
// line plane) and appends unit numbers to fetch ahead to out, returning the
// extended slice; the plane owns out — a scratch it passes back in, emptied,
// on every miss, so proposing allocates nothing once the scratch has grown —
// and filters out-of-range/resident/in-flight units. PerMissOverhead is the
// policy's metadata cost per consult (trend detection, table lookups): the
// policy runs on a runner thread, so both planes issue its advisory fetch
// that much later and never stall the demand access on it.
type Policy interface {
	Name() string
	OnMiss(unit int64, out []int64) []int64
	PerMissOverhead() sim.Duration
}

// WindowCapped is an optional Policy extension for windowed runners whose
// in-flight window must track the plane's live capacity. Both planes'
// installers call CapWindow; holders of a resizable plane
// (rt.SetSectionScale's elastic leases) call it again after each resize so
// the clamp follows the cache it protects.
type WindowCapped interface {
	// CapWindow re-derives the effective window for a plane currently
	// holding capacityUnits units.
	CapWindow(capacityUnits int)
	// Window reports the current effective window.
	Window() int
}

// Efficacy is the per-plane prefetch accounting both planes maintain:
//
//	Issued  — speculative fetches handed to the transport
//	Useful  — prefetched units later hit by a demand access
//	Useless — prefetched units evicted without ever being touched
//	Dropped — proposals the plane discarded (out of range, no evictable
//	          slot, advisory fetch failed under faults)
type Efficacy struct {
	Issued  int64
	Useful  int64
	Useless int64
	Dropped int64
	// Late counts useful prefetches whose bytes had not landed when the
	// demand touch arrived — the touch stalled on the tail of the fetch.
	Late int64
}

// Accuracy is the fraction of issued prefetches that were ever used.
func (e Efficacy) Accuracy() float64 {
	if e.Issued == 0 {
		return 0
	}
	return float64(e.Useful) / float64(e.Issued)
}

// Coverage is the fraction of would-be demand misses the prefetcher hid:
// useful prefetches over useful prefetches plus the misses that still
// happened.
func (e Efficacy) Coverage(demandMisses int64) float64 {
	if e.Useful+demandMisses == 0 {
		return 0
	}
	return float64(e.Useful) / float64(e.Useful+demandMisses)
}

// Timeliness is the fraction of useful prefetches that fully landed
// before their demand touch (1 when nothing was useful: an idle
// prefetcher is vacuously on time).
func (e Efficacy) Timeliness() float64 {
	if e.Useful == 0 {
		return 1
	}
	return float64(e.Useful-e.Late) / float64(e.Useful)
}

// Add accumulates another plane's (or section's) counters.
func (e *Efficacy) Add(o Efficacy) {
	e.Issued += o.Issued
	e.Useful += o.Useful
	e.Useless += o.Useless
	e.Dropped += o.Dropped
	e.Late += o.Late
}

// StreamTopUp is an optional Policy extension for runahead streams: the
// plane reports the first demand touch of a unit that arrived
// speculatively, and the policy may return more units to keep its
// in-flight window full without waiting for the next demand miss. Only
// policies that know where the stream is going (the programmed runner)
// implement it; reactive policies top up on misses alone. Proposals are
// advisory and appended to the plane's out exactly like OnMiss's.
type StreamTopUp interface {
	OnPrefetchedTouch(unit int64, out []int64) []int64
}

// None never prefetches — the control arm of every race.
type None struct{}

func (None) Name() string                        { return "none" }
func (None) OnMiss(_ int64, out []int64) []int64 { return out }
func (None) PerMissOverhead() sim.Duration       { return 0 }

// Readahead is FastSwap/Linux cluster readahead: pull the N units following
// every miss. Free on the fault path, profitable on sequential streams,
// pure pollution on pointer chases.
type Readahead struct{ N int64 }

func (Readahead) Name() string { return "readahead" }

func (r Readahead) OnMiss(unit int64, out []int64) []int64 {
	for i := int64(1); i <= r.N; i++ {
		out = append(out, unit+i)
	}
	return out
}

func (Readahead) PerMissOverhead() sim.Duration { return 0 }

// Leap is Leap's [ATC'20] majority-trend detector: if one miss-delta wins a
// Boyer-Moore majority vote over the recent window, prefetch Depth units
// along it; otherwise stay silent. Captures one global stride, loses
// interleaved per-object patterns.
type Leap struct {
	window int
	depth  int64
	// history ends in the recent miss deltas, newest last, in a buffer of
	// twice the window: when it fills, the newest window-1 move to its
	// front, so the window slides without reallocating and is always one
	// contiguous slice.
	history  []int64
	last     int64
	haveLast bool
}

// NewLeap builds the trend detector (window 32, depth 8 when zero — the
// Leap baseline's defaults).
func NewLeap(window int, depth int64) *Leap {
	if window == 0 {
		window = 32
	}
	if depth == 0 {
		depth = 8
	}
	return &Leap{window: window, depth: depth, history: make([]int64, 0, 2*window)}
}

func (*Leap) Name() string { return "leap" }

func (p *Leap) OnMiss(unit int64, out []int64) []int64 {
	if p.haveLast {
		if len(p.history) == cap(p.history) {
			p.history = p.history[:copy(p.history, p.history[len(p.history)-p.window+1:])]
		}
		p.history = append(p.history, unit-p.last)
	}
	p.last = unit
	p.haveLast = true
	recent := p.history[max(0, len(p.history)-p.window):]
	if len(recent) < p.window/2 {
		return out
	}
	// Boyer-Moore majority vote over the window (the algorithm Leap uses).
	var cand int64
	count := 0
	for _, d := range recent {
		if count == 0 {
			cand = d
			count = 1
		} else if d == cand {
			count++
		} else {
			count--
		}
	}
	// Verify it is a true majority.
	occurrences := 0
	for _, d := range recent {
		if d == cand {
			occurrences++
		}
	}
	if occurrences*2 <= len(recent) || cand == 0 {
		return out
	}
	for i := int64(1); i <= p.depth; i++ {
		out = append(out, unit+cand*i)
	}
	return out
}

// PerMissOverhead is the trend-detection cost on every miss.
func (p *Leap) PerMissOverhead() sim.Duration { return 300 * sim.Nanosecond }

// Spec names a policy and its knob for CLI/harness plumbing. The zero
// Depth selects each family's default.
type Spec struct {
	// Policy is a registry name: "none", "readahead", "leap", "history",
	// "programmed" — or "compiled" on the line plane (the planner's
	// statically emitted prefetch, no runtime policy object).
	Policy string
	// Depth is readahead count / Leap trend depth / history chain depth.
	Depth int64
}

// Compiled is the line plane's reference arm: prefetch statements the
// planner compiled into the program. It is not a runtime policy — Build
// rejects it — but it is a registered name so harnesses race it.
const Compiled = "compiled"

// builders construct each registered policy family. Programmed needs the
// future unit sequence (an access tape lowered to the plane's units), passed
// separately to Build.
var builders = map[string]func(s Spec, program []int64) Policy{
	"none":      func(Spec, []int64) Policy { return None{} },
	"readahead": func(s Spec, _ []int64) Policy { return Readahead{N: defDepth(s.Depth, 2)} },
	"leap":      func(s Spec, _ []int64) Policy { return NewLeap(0, s.Depth) },
	"history":   func(s Spec, _ []int64) Policy { return NewHistory(HistoryConfig{Depth: int(s.Depth)}) },
	"programmed": func(_ Spec, program []int64) Policy {
		return NewProgrammed(program, DefaultWindow)
	},
}

func defDepth(d, def int64) int64 {
	if d == 0 {
		return def
	}
	return d
}

// Names lists the registered policy families, sorted, for CLI help and
// table-driven tests.
func Names() []string {
	out := make([]string, 0, len(builders))
	for n := range builders {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Build constructs a fresh policy instance from a spec. Policies are
// stateful (Leap's window, history's tables, programmed's cursor): build
// one instance per miss stream — per plane, and per section on the line
// plane — never share one across streams. program is the future unit
// sequence for "programmed", a recorded access tape lowered to the plane's
// units (ignored by the online families).
func Build(spec Spec, program []int64) (Policy, error) {
	b, ok := builders[spec.Policy]
	if !ok {
		return nil, fmt.Errorf("prefetch: unknown policy %q (have %v)", spec.Policy, Names())
	}
	return b(spec, program), nil
}
