package planner

import (
	"sort"

	"mira/internal/analysis"
	"mira/internal/ir"
	"mira/internal/profile"
	"mira/internal/rt"
	"mira/internal/trace"
)

// analyzeAll analyzes the whole program — every function against every
// non-local object — and returns the objects in sorted order. The plane
// race's line candidate and the offload phase's candidate list read this
// scope.
func analyzeAll(prog *ir.Program) (*analysis.Report, []string, error) {
	var objs []string
	for _, o := range prog.Objects {
		if !o.Local {
			objs = append(objs, o.Name)
		}
	}
	sort.Strings(objs)
	report, err := analysis.Analyze(prog, nil, objs) // nil: every function
	return report, objs, err
}

// pageWorthy reports whether the analysis classifies an object as dense
// sequential/strided — the access shapes the paged plane's large fetch
// granularity and cluster readahead serve at least as well as lines, without
// per-access lookup cost. Sparse shapes (indirect chases, random) stay on
// the line-granular plane, where a 4 KB fetch would be mostly waste.
func pageWorthy(m *analysis.ObjectAccess) bool {
	if m == nil {
		return false
	}
	return m.Pattern == analysis.PatternSequential || m.Pattern == analysis.PatternStrided
}

// classifiedCandidate derives the per-object plane split from the line
// candidate: section-placed objects whose merged pattern is dense move to
// the paged plane (their placements revert to the swap default), sections
// emptied by the moves are dropped with the surviving sections reindexed,
// and the freed section bytes return to the swap pool. Returns nil when the
// split would change nothing (no dense section members, or no sections).
func classifiedCandidate(cfg rt.Config, report *analysis.Report) *rt.Config {
	if len(cfg.Sections) == 0 {
		return nil
	}
	var moved []string
	for name, pl := range cfg.Placements {
		if pl.Kind == rt.PlaceSection && pageWorthy(report.MergedObject(name)) {
			moved = append(moved, name)
		}
	}
	if len(moved) == 0 {
		return nil
	}
	sort.Strings(moved)

	out := cfg
	out.Placements = make(map[string]rt.Placement, len(cfg.Placements))
	for name, pl := range cfg.Placements {
		out.Placements[name] = pl
	}
	for _, name := range moved {
		delete(out.Placements, name)
	}
	// Drop sections with no members left and remap the survivors' indices.
	members := make([]int, len(cfg.Sections))
	for _, pl := range out.Placements {
		if pl.Kind == rt.PlaceSection {
			members[pl.Section]++
		}
	}
	remap := make([]int, len(cfg.Sections))
	out.Sections = nil
	var freed int64
	for i, spec := range cfg.Sections {
		if members[i] == 0 {
			remap[i] = -1
			freed += spec.Cache.SizeBytes
			continue
		}
		remap[i] = len(out.Sections)
		out.Sections = append(out.Sections, spec)
	}
	for name, pl := range out.Placements {
		if pl.Kind == rt.PlaceSection {
			pl.Section = remap[pl.Section]
			out.Placements[name] = pl
		}
	}
	// The dense objects now page through the swap pool; the bytes their
	// sections held buy pool capacity for them.
	out.SwapPool += freed
	return &out
}

// planeRace is the Plane="line"/"hybrid" structural step, replacing the
// iterations: derive the pure-line candidate of prog — sections for
// everything analyzable in the whole program, from the baseline profile —
// and race it (and, for "hybrid", the classified per-object split) against
// the incumbent pure-page baseline.
//
// "line" forces its candidate — that is what the mode means — while "hybrid"
// only ever accepts improvements. Because hybrid's baseline IS the page
// mode's result and both modes race the same line candidate, hybrid's final
// time is <= min(page, line) by construction.
func (p *planning) planeRace(prog *ir.Program, col *profile.Collector) {
	report, objs, err := analyzeAll(prog)
	var line candidate
	if err == nil {
		line, err = buildConfig(p.l, prog, report, objs, col, p.opts)
	}
	if err != nil {
		// No feasible line configuration at this budget: the page baseline
		// stands for every mode.
		p.ptrc.Instant(p.cursor, "planner", "plane.line infeasible",
			trace.S("err", err.Error()))
		return
	}
	p.res.Report = report
	out, _ := p.try(move{name: "plane line", prog: line.prog, cfg: line.cfg, plan: line.plan,
		force: p.opts.Plane == "line"})
	if out.err != nil || p.opts.Plane != "hybrid" {
		return
	}
	split := classifiedCandidate(line.cfg, report)
	if split == nil {
		p.ptrc.Instant(p.cursor, "planner", "plane.split unchanged")
		return
	}
	p.try(move{name: "plane split", prog: line.prog, cfg: *split, plan: line.plan})
}

// planeAssignment reports which plane the accepted configuration serves each
// object from: "line" (cache section), "page" (swap pool), or "local".
func planeAssignment(prog *ir.Program, cfg rt.Config) map[string]string {
	out := make(map[string]string, len(prog.Objects))
	for _, o := range prog.Objects {
		pl, placed := cfg.Placements[o.Name]
		switch {
		case o.Local || (placed && pl.Kind == rt.PlaceLocal):
			out[o.Name] = "local"
		case placed && pl.Kind == rt.PlaceSection:
			out[o.Name] = "line"
		default:
			out[o.Name] = "page"
		}
	}
	return out
}
