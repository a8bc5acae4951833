package planner

import (
	"fmt"
	"sort"

	"mira/internal/analysis"
	"mira/internal/ir"
	"mira/internal/profile"
	"mira/internal/rt"
	"mira/internal/sim"
	"mira/internal/trace"
)

// validatePlane checks the Options.Plane mode against the rest of the
// options. Every plane mode plans on the unified hybrid heap layout, which
// is single-node; "line" and "hybrid" additionally need cache sections.
func validatePlane(opts Options) error {
	switch opts.Plane {
	case "", "page", "line", "hybrid":
	default:
		return fmt.Errorf("planner: unknown Plane mode %q (want page, line, or hybrid)", opts.Plane)
	}
	if opts.Plane == "" {
		return nil
	}
	if opts.Cluster != nil {
		return fmt.Errorf("planner: Plane=%q uses the unified hybrid layout, which is single-node (drop Cluster)", opts.Plane)
	}
	if opts.Plane != "page" && opts.DisableSeparation {
		return fmt.Errorf("planner: Plane=%q needs cache sections, but DisableSeparation is set", opts.Plane)
	}
	return nil
}

// lineCandidate builds the pure-line-plane configuration: analyze every
// function and every non-local object, derive sections for everything
// analyzable, and compile against the plan. Both the "line" arm and the
// "hybrid" arm build their line candidate through this one helper, from the
// same profile, so the two arms' candidates are identical by construction.
func lineCandidate(l *ledger, prog *ir.Program, col *profile.Collector, opts Options) (candidate, *analysis.Report, error) {
	var funcs []string
	for _, f := range prog.Funcs {
		funcs = append(funcs, f.Name)
	}
	sort.Strings(funcs)
	var objs []string
	for _, o := range prog.Objects {
		if !o.Local {
			objs = append(objs, o.Name)
		}
	}
	sort.Strings(objs)
	report, err := analysis.Analyze(prog, funcs, objs)
	if err != nil {
		return candidate{}, nil, err
	}
	cand, err := buildConfig(l, prog, report, objs, col, opts)
	if err != nil {
		return candidate{}, nil, err
	}
	cand.cfg.Hybrid = true
	return cand, report, nil
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

// planeRace is the Plane="line"/"hybrid" phase, replacing the structural
// iterations: race the pure-line candidate (and, for "hybrid", the
// classified per-object split) against the incumbent pure-page baseline.
//
// "line" force-accepts its candidate — that is what the mode means — while
// "hybrid" only ever accepts improvements. Because hybrid's baseline IS the
// page arm's result and its line candidate comes from the same helper as
// the line arm's, hybrid's final time is <= min(page, line) by construction.
func planeRace(l *ledger, prog *ir.Program, res *Result, col *profile.Collector, opts Options, ptrc *trace.Buffer, cursor sim.Time) sim.Time {
	line, report, err := lineCandidate(l, prog, col, opts)
	if err != nil {
		// No feasible line configuration at this budget: the page baseline
		// stands for every mode.
		ptrc.Instant(cursor, "planner", "plane.line infeasible",
			trace.S("err", err.Error()))
		return cursor
	}
	res.Report = report
	out := l.profile(line.prog, line.cfg)
	if out.err != nil {
		ptrc.Instant(cursor, "planner", "plane.line runtime-rejected",
			trace.S("err", out.err.Error()))
		return cursor
	}
	t := out.time
	verdict := "rolled-back"
	if opts.Plane == "line" || t < res.FinalTime {
		verdict = "accepted"
		res.FinalTime = t
		res.Config = line.cfg
		res.Plan = line.plan
		res.Program = line.prog
	}
	end := cursor.Add(t)
	ptrc.Span(cursor, end, "planner", "plane line",
		trace.I("time_ns", int64(t)), trace.S("result", verdict))
	cursor = end

	if opts.Plane != "hybrid" {
		return cursor
	}
	split := classifiedCandidate(line.cfg, report)
	if split == nil {
		ptrc.Instant(cursor, "planner", "plane.split unchanged")
		return cursor
	}
	out = l.profile(line.prog, *split)
	if out.err != nil {
		ptrc.Instant(cursor, "planner", "plane.split runtime-rejected",
			trace.S("err", out.err.Error()))
		return cursor
	}
	t = out.time
	verdict = "rolled-back"
	if t < res.FinalTime {
		verdict = "accepted"
		res.FinalTime = t
		res.Config = *split
		res.Plan = line.plan
		res.Program = line.prog
	}
	end = cursor.Add(t)
	ptrc.Span(cursor, end, "planner", "plane split",
		trace.I("time_ns", int64(t)), trace.S("result", verdict))
	return end
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
