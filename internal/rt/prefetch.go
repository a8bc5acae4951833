package rt

import (
	"fmt"

	"mira/internal/prefetch"
	"mira/internal/sim"
	"mira/internal/swap"
	"mira/internal/trace"
)

// InstallSectionPolicy attaches an advisory prefetch policy to section
// idx's demand-miss stream (prefetcher zoo, line plane). One policy
// instance per section: sections have disjoint miss streams and stateful
// policies must not mix them. Nil uninstalls. A windowed policy has its
// window capped to the section (prefetch.WindowCapped). Call after Bind.
func (r *Runtime) InstallSectionPolicy(idx int, p prefetch.Policy) error {
	if idx < 0 || idx >= len(r.secs) {
		return fmt.Errorf("rt: install policy on section %d of %d", idx, len(r.secs))
	}
	if wc, ok := p.(prefetch.WindowCapped); ok {
		wc.CapWindow(r.secs[idx].sec.Config().Lines())
	}
	r.secs[idx].policy = p
	return nil
}

// policyMiss runs section s's advisory policy on a demand miss of tag:
// filters its proposals (in-section, absent, not in flight) and issues the
// survivors as one speculative doorbell-batched gather. Runs only after
// the demand access fully completed: speculative wire traffic queues
// behind the miss it rides on, and the speculative reservations — which
// may evict any line, including the demand line — can never invalidate an
// in-progress copy.
func (r *Runtime) policyMiss(clk *sim.Clock, s *sectionRT, tag uint64) {
	if s.policy == nil {
		return
	}
	ub := s.unitBytes()
	s.props = s.policy.OnMiss(int64(tag/ub), s.props[:0])
	r.policyIssue(clk, s, tag%ub)
}

// policyTouch feeds the first demand touch of a speculatively fetched line
// to stream-maintaining policies (prefetch.StreamTopUp) so a covered
// stream sustains its runahead window without demand-missing once per
// window.
func (r *Runtime) policyTouch(clk *sim.Clock, s *sectionRT, tag uint64) {
	tu, ok := s.policy.(prefetch.StreamTopUp)
	if !ok {
		return
	}
	ub := s.unitBytes()
	s.props = tu.OnPrefetchedTouch(int64(tag/ub), s.props[:0])
	r.policyIssue(clk, s, tag%ub)
}

// policyIssue turns the policy's proposals in s.props (units of the
// section's stride, unitBytes) into tags — each unit's line at offset off
// into it, the offset of the line that fired the policy — and issues them
// speculatively. On a strided section a unit is an element, and "the next
// line" is the same field span of the next element.
//
// The policy runs on the runner thread, off the access path: its table
// work (PerMissOverhead) and the speculative doorbell are charged by
// delaying when the gather is posted — slower predictors land their lines
// later (and count Late more often) — never by stalling the demand access.
func (r *Runtime) policyIssue(clk *sim.Clock, s *sectionRT, off uint64) {
	ub := s.unitBytes()
	s.want = s.want[:0]
	for _, u := range s.props {
		if u < 0 {
			s.dropped()
			continue
		}
		r.propose(clk, s, uint64(u)*ub+off)
	}
	r.issueWanted(clk, s)
}

// propose runs the filter on one candidate tag: a line parked in the
// write-back queue is recovered at once, a line only far memory holds joins
// s.want.
func (r *Runtime) propose(clk *sim.Clock, s *sectionRT, t uint64) {
	o := r.ownerOf(t)
	if o == nil || r.secs[o.place.Section] != s {
		// Past an object's end or outside this section's objects: the
		// proposal cannot be honored here.
		s.dropped()
		return
	}
	switch s.locate(t) {
	case lineParked:
		r.unpark(clk, s, t)
	case lineFar:
		s.want = append(s.want, claimed{s: s, o: o, tag: t})
	}
}

// issueWanted claims a slot for every line in s.want — every parked
// candidate was recovered before the first claim — and lands them in one
// gather.
func (r *Runtime) issueWanted(clk *sim.Clock, s *sectionRT) {
	got := s.want[:0]
	for _, c := range s.want {
		if _, resident := s.sec.Peek(c.tag); resident {
			// Proposed twice (a chain that came back to a line): an earlier
			// claim of this batch holds it.
			continue
		}
		l, recovered, err := r.claim(clk, s, c.tag)
		if err != nil {
			// The victim's write-back failed hard. The demand path will
			// surface persistent trouble — an advisory fetch must not.
			s.dropped()
			continue
		}
		if !recovered {
			c.l = l
			got = append(got, c)
		}
	}
	if len(got) == 0 {
		return
	}
	post := clk.Now().Add(r.cfg.Net.VectoredPostCost(len(got))).Add(s.policy.PerMissOverhead())
	done, err := r.land(post, got)
	if err == nil && r.trc != nil {
		r.trc.Span(post, done, "rt", "prefetch.policy",
			trace.S("section", s.spec.Cache.Name), trace.I("lines", int64(len(got))))
	}
}

// LineUnit maps obj[elem] to its cache section and the section plane's
// prefetch unit: the global index of the element's line, or, on a strided
// section, of the element's stride-aligned unit (Bind aligns such an object
// to its stride). ok=false for non-section placements — a lowered access tape
// skips those elements.
func (r *Runtime) LineUnit(name string, elem int64) (sec int, unit int64, ok bool) {
	o, found := r.objs[name]
	if !found || o.place.Kind != PlaceSection || elem < 0 || elem >= o.decl.Count {
		return 0, 0, false
	}
	s := r.secs[o.place.Section]
	addr := o.farBase + uint64(elem)*uint64(o.decl.ElemBytes)
	return o.place.Section, int64(addr / s.unitBytes()), true
}

// PageUnit maps obj[elem] to its swap page number — the page plane's
// prefetch unit. ok=false for non-swap placements.
func (r *Runtime) PageUnit(name string, elem int64) (unit int64, ok bool) {
	o, found := r.objs[name]
	if !found || o.place.Kind != PlaceSwap || r.swapC == nil || elem < 0 || elem >= o.decl.Count {
		return 0, false
	}
	addr := o.farBase + uint64(elem)*uint64(o.decl.ElemBytes)
	return int64((addr - r.swapC.Base()) / swap.PageBytes), true
}

// SectionPrefetchStats reports section idx's prefetch efficacy counters.
func (r *Runtime) SectionPrefetchStats(idx int) prefetch.Efficacy {
	return r.secs[idx].pf
}

// PrefetchStats aggregates prefetch efficacy across the whole runtime:
// every cache section plus the swap pool.
func (r *Runtime) PrefetchStats() prefetch.Efficacy {
	var e prefetch.Efficacy
	for _, s := range r.secs {
		e.Add(s.pf)
	}
	if r.swapC != nil {
		e.Add(r.swapC.Stats().Prefetch)
	}
	return e
}
