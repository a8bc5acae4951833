package planner

import (
	"sort"

	"mira/internal/analysis"
	"mira/internal/codegen"
	"mira/internal/ir"
	"mira/internal/rt"
	"mira/internal/trace"
)

// This file is the Offload 2.0 planning phase (§4.8 scaled out): after the
// structural iterations (and plane race) settle, decide which functions to
// ship to the cluster's scatter-gather engine. "on" marks every
// scatter-safe candidate; "auto" races each candidate — and the
// all-candidates combination — against the accepted plan and keeps offload
// only where it is strictly faster, through the accept step (try) every
// other phase races with. Auto therefore never
// loses to off (the incumbent only falls to a faster candidate) nor to on
// (the all-candidates combination is always raced).

// offloadCandidates lists the functions worth scattering: offload-safe by
// analysis (§4.8's no-shared-writes, no-local-objects precondition),
// actually called, not the entry, and recognized by the scatter shape
// analysis so the engine can split them by placement.
func offloadCandidates(prog *ir.Program) []string {
	report, _, err := analyzeAll(prog)
	if err != nil {
		return nil
	}
	called := map[string]bool{}
	for _, f := range prog.Funcs {
		ir.Walk(f.Body, func(s ir.Stmt) bool {
			if c, ok := s.(*ir.Call); ok {
				called[c.Callee] = true
			}
			return true
		})
	}
	var out []string
	for name, fr := range report.Funcs {
		if !fr.OffloadSafe || name == prog.Entry || !called[name] {
			continue
		}
		fn, ok := prog.Func(name)
		if !ok {
			continue
		}
		if _, ok := analysis.AnalyzeScatter(prog, fn); !ok {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// scatterPlacements moves each offloaded function's scatter-driving object
// to the swap placement, where the cluster stripes it across nodes. ok is
// false when the config has no swap pool to serve those objects from.
func scatterPlacements(prog *ir.Program, cfg rt.Config, funcs []string) (rt.Config, bool) {
	if cfg.SwapPool <= 0 {
		return cfg, false
	}
	objs := map[string]bool{}
	for _, name := range funcs {
		fn, ok := prog.Func(name)
		if !ok {
			continue
		}
		if plan, ok := analysis.AnalyzeScatter(prog, fn); ok {
			objs[plan.Object] = true
		}
	}
	if len(objs) == 0 {
		return cfg, false
	}
	moved := false
	placements := make(map[string]rt.Placement, len(cfg.Placements))
	for name, pl := range cfg.Placements {
		if objs[name] && pl.Kind == rt.PlaceSection {
			pl = rt.Placement{Kind: rt.PlaceSwap}
			moved = true
		}
		placements[name] = pl
	}
	if !moved {
		return cfg, false // already swap-striped; the plain combo covers it
	}
	cfg.Placements = placements
	return cfg, true
}

// offloadPhase runs after every other planning decision settled and tries
// each combination of candidates on the settled plan.
func (p *planning) offloadPhase() {
	opts := p.opts
	if opts.Offload == "" || opts.Offload == "off" {
		return
	}
	cands := offloadCandidates(p.res.Program)
	if len(cands) == 0 {
		p.ptrc.Instant(p.cursor, "planner", "offload.no-candidates")
		return
	}

	type combo struct {
		name    string
		funcs   []string
		scatter bool // stripe the driving objects across the cluster
	}
	var combos []combo
	add := func(name string, funcs []string) {
		combos = append(combos, combo{name, funcs, false})
		if opts.Cluster != nil && opts.Cluster.Nodes > 1 {
			// Sections are placed whole on one node, so a sectioned
			// driving object yields a single sub-offload. The scatter
			// variant returns it to the striped swap heap: slower to
			// fetch, but the engine can then split the function across
			// every node that owns a stripe.
			combos = append(combos, combo{name + "+scatter", funcs, true})
		}
	}
	if opts.Offload == "auto" && len(cands) > 1 {
		for _, c := range cands {
			add(c, []string{c})
		}
	}
	add("all", cands)

	// Every candidate compiles from the settled plan, not from an earlier
	// accepted candidate: the "all" combination is then byte-identical to
	// what Offload="on" produces, which is what makes auto <= on hold by
	// construction.
	baseProg, baseCfg, basePlan := p.res.Program, p.res.Config, *p.res.Plan
	for _, c := range combos {
		name := "offload " + c.name
		marks := make(map[string]bool, len(c.funcs))
		for _, f := range c.funcs {
			marks[f] = true
		}
		// Clone + mark + fence insertion; no other rewriting.
		compiled, err := p.l.compile(baseProg, &codegen.Plan{Offload: marks})
		if err != nil {
			p.ptrc.Instant(p.cursor, "planner", name+" rejected", trace.S("err", err.Error()))
			continue
		}
		cfg := baseCfg
		if c.scatter {
			scattered, ok := scatterPlacements(baseProg, cfg, c.funcs)
			if !ok {
				continue
			}
			cfg = scattered
		}
		plan := basePlan
		plan.Offload = marks
		// "on" forces the all-candidates configuration (its scatter
		// variant still has to win on time); "auto" keeps a candidate
		// only when it strictly beats the incumbent.
		p.try(move{name: name, prog: compiled, cfg: cfg, plan: &plan, offloaded: c.funcs,
			force: opts.Offload == "on" && c.name == "all",
			args:  []trace.Arg{trace.I("funcs", int64(len(c.funcs)))}})
	}
}
