package rt

import (
	"fmt"
	"sort"

	"mira/internal/cache"
	"mira/internal/prefetch"
	"mira/internal/sim"
	"mira/internal/trace"
)

// SetSectionScale resizes every cache section to scale × its bound size —
// the elastic-reclaim primitive behind multi-tenant serving: an idle
// tenant's runtime is shrunk so its local DRAM can back a loaded tenant's
// sections, and regrown (cold) when the tenant reactivates. Every line is
// dropped like any other eviction — dirty bytes drain through the write-back
// queue, snapshots retire, marks leave with their slots — and each section is
// rebuilt at the scaled size, so no data is lost and the reactivation
// penalty — refilling the cache over the link — is charged to whoever
// triggers the resize via clk. Scales are absolute
// (of the bound size), not cumulative. A no-op at the current scale.
func (r *Runtime) SetSectionScale(clk *sim.Clock, scale float64) error {
	if scale <= 0 {
		return fmt.Errorf("rt: SetSectionScale(%g)", scale)
	}
	if scale == r.SectionScale() {
		return nil
	}
	start := clk.Now()
	for _, s := range r.secs {
		if err := r.flushSection(clk, s); err != nil {
			return err
		}
		sec, err := cache.New(s.spec.Cache.Scaled(scale))
		if err != nil {
			return err
		}
		r.secMisses -= s.sec.Stats().Misses
		s.sec = sec
		// Re-derive the prefetch policy's in-flight window for the resized
		// cache: the install-time clamp ("half the plane's capacity") was
		// computed against the bound size, and a window wider than the
		// shrunken section would evict its own prefetches before use.
		if wc, ok := s.policy.(prefetch.WindowCapped); ok {
			wc.CapWindow(sec.Config().Lines())
		}
	}
	r.secScale = scale
	if r.trc != nil {
		r.trc.Span(start, clk.Now(), "rt", "elastic.resize",
			trace.I("pct", int64(scale*100)))
		r.reg.Counter("rt.elastic.resizes").Inc()
	}
	return nil
}

// SectionScale reports the current elastic scale (1 = the bound size).
func (r *Runtime) SectionScale() float64 {
	if r.secScale == 0 {
		return 1
	}
	return r.secScale
}

// SectionLiveBytes reports the sections' current local-memory footprint at
// the live elastic scale — what a serving-layer reclaimer balances across
// tenants.
func (r *Runtime) SectionLiveBytes() int64 {
	var t int64
	scale := r.SectionScale()
	for _, s := range r.secs {
		t += s.spec.Cache.Scaled(scale).SizeBytes
	}
	return t
}

// flushSection writes back and drops every resident line of s, draining the
// section's write-back queue so the bytes are authoritative in far memory on
// return.
func (r *Runtime) flushSection(clk *sim.Clock, s *sectionRT) error {
	lines := s.linesIn(0, ^uint64(0))
	// Sorted write-back order keeps queueing on the shared link — and so
	// sim times — independent of the section's internal iteration order.
	sort.Slice(lines, func(i, j int) bool { return lines[i].Tag < lines[j].Tag })
	for _, l := range lines {
		if l.Dirty && s.wbq == nil {
			clk.Advance(r.cfg.Net.PerMessageOverhead)
		}
		if _, err := r.drop(clk, s, l.Tag); err != nil {
			return err
		}
	}
	done, err := r.drainWbq(clk, s)
	if err != nil {
		return err
	}
	clk.AdvanceTo(done)
	return nil
}
