// Prefetch-policy race runners: one cell of BENCH_prefetch.json is one
// (policy, plane, app) triple. The page plane runs the workload on a
// uniform swap configuration (every object paged, FastSwap-calibrated
// fault path) with the policy installed as the swap prefetcher; the line
// plane runs the planner's accepted sectioned configuration with the
// policy installed on every cache section's demand-miss stream.
//
// Line-plane fairness: every cell shares ONE accepted plan per app — the
// planner runs once with the run's planner options, exactly as the plain
// Mira run plans, and the policy variants are derived by re-applying codegen
// with the statement emission altered ("programmed" suppresses the compiled
// Prefetch/BatchPrefetch stream and lets the access-program runner cover
// residency; the online family strips prefetch and the Native conversion
// that depended on it). Section placements, line sizes, and budgets are
// identical across cells, so elapsed-time deltas isolate the prefetch
// policy, and the "compiled" cell is the plain run.
package harness

import (
	"fmt"

	"mira/internal/analysis"
	"mira/internal/codegen"
	"mira/internal/planner"
	"mira/internal/prefetch"
	"mira/internal/rt"
	"mira/internal/session"
	"mira/internal/workload"
)

// RunPagePolicy races one policy on the page plane: a uniform swap
// configuration (the FastSwap datapath) with spec's policy as the swap
// prefetcher. "compiled" is rejected — there is no compiled prefetch
// stream on the page plane.
func RunPagePolicy(w workload.Workload, opts Options, spec prefetch.Spec) (Result, error) {
	if spec.Policy == prefetch.Compiled {
		return Result{}, fmt.Errorf("harness: policy %q has no page-plane arm", spec.Policy)
	}
	prog := w.Program()
	cfg, err := session.SwapOnly(prog, opts.Budget)
	if err != nil {
		return Result{}, fmt.Errorf("harness: %w", err)
	}
	cfg.SwapCfg.BatchPrefetch = true // runConfig clears it on the unbatched data path
	return runSpec(System("page/"+spec.Policy), session.Spec{
		Workload: w,
		Config:   opts.runConfig(cfg),
		Swap: func(r *rt.Runtime) (prefetch.Policy, error) {
			var program []int64
			if spec.Policy == "programmed" {
				// Lower the IR's access phases to page numbers; swap-placed
				// objects only (everything here).
				program = analysis.LowerPhases(analysis.AccessProgram(prog), r.PageUnit)
			}
			return prefetch.Build(spec, program)
		},
	}, opts)
}

// RunLinePolicy races one policy on the line plane. For racing several
// policies against the same accepted plan, RunLinePolicies amortizes the
// planning run.
func RunLinePolicy(w workload.Workload, opts Options, spec prefetch.Spec) (Result, error) {
	res, err := RunLinePolicies(w, opts, []prefetch.Spec{spec})
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// RunLinePolicies plans w once, with the run's planner options
// (planOptions, as the plain Mira run plans), and runs one cell per
// spec against the accepted sectioned configuration: "compiled" executes
// the planner's program as accepted; every other policy executes a derived
// program (see the package comment) with one fresh policy instance
// installed per cache section. The swap pool keeps the planner's standard
// readahead in every cell so only the section policies differ.
func RunLinePolicies(w workload.Workload, opts Options, specs []prefetch.Spec) ([]Result, error) {
	pres, err := planner.Plan(w, opts.planOptions())
	if err != nil {
		return nil, err
	}
	// Variant programs are compiled lazily and cached: the online policies
	// all share the prefetch-stripped program.
	progs := map[string]*programVariant{}
	variantFor := func(policy string) (*programVariant, error) {
		key := variantKey(policy)
		if v, ok := progs[key]; ok {
			return v, nil
		}
		v, err := buildVariant(key, w, pres)
		if err != nil {
			return nil, err
		}
		progs[key] = v
		return v, nil
	}
	var out []Result
	for _, spec := range specs {
		v, err := variantFor(spec.Policy)
		if err != nil {
			return nil, err
		}
		res, err := runAccepted(System("line/"+spec.Policy), w, opts, pres, v, spec)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// programVariant is one compiled rendering of the accepted plan: the plan
// to re-apply (nil = run the accepted program unchanged), plus the access
// phases the programmed runner lowers per section.
type programVariant struct {
	prog   *codegen.Plan
	phases []analysis.Phase
}

// variantKey buckets policies by the program text they execute.
func variantKey(policy string) string {
	switch policy {
	case prefetch.Compiled:
		return prefetch.Compiled
	case "programmed":
		return "programmed"
	default:
		return "online"
	}
}

// buildVariant derives the variant's executable program from the accepted
// plan without re-planning.
func buildVariant(key string, w workload.Workload, pres *planner.Result) (*programVariant, error) {
	v := &programVariant{}
	switch key {
	case prefetch.Compiled:
		v.prog = nil // sentinel: run pres.Program as accepted
	case "programmed":
		plan := clonePlan(pres.Plan)
		plan.SuppressPrefetchStmts = true
		// A chained target is native only because the gathers this variant
		// suppresses bring its lines in, and the access program skips
		// indirect accesses: nothing else would.
		for _, op := range plan.Objects {
			if op.ChainedFrom != "" {
				op.Native = false
			}
		}
		v.prog = plan
		v.phases = analysis.AccessProgram(w.Program())
	default: // online family: no compiled stream, no proven residency
		plan := clonePlan(pres.Plan)
		for _, op := range plan.Objects {
			op.PrefetchDistance = 0
			op.BatchLines = 0
			op.ChainedFrom = ""
			op.Native = false
		}
		plan.BatchFusedPrefetch = false
		v.prog = plan
	}
	return v, nil
}

// clonePlan deep-copies a codegen plan so variants can edit decisions.
func clonePlan(p *codegen.Plan) *codegen.Plan {
	out := *p
	out.Objects = make(map[string]*codegen.ObjectPlan, len(p.Objects))
	for name, op := range p.Objects {
		cp := *op
		out.Objects[name] = &cp
	}
	return &out
}

// runAccepted executes one cell of the accepted plan pres on a fresh runtime
// bound to its configuration, under the run's fault domain and tracer: v's
// program (v.prog nil: the accepted program as accepted), with one fresh
// instance of spec's policy on every cache section unless spec is
// "compiled". The swap pool runs the planner's policy, as the planner timed
// it. Fault-free, the accepted program as accepted is the planner's accepted
// timing run minus its profiling probes (TestHarnessRerunIsThePlannersRun),
// so it reports the time the planner accepted the plan at: the plain Mira
// run and the compiled arm are one run (TestCompiledArmIsThePlainRun).
func runAccepted(sys System, w workload.Workload, opts Options, pres *planner.Result, v *programVariant,
	spec prefetch.Spec) (Result, error) {
	prog := pres.Program
	if v.prog != nil {
		var err error
		prog, err = codegen.Apply(w.Program(), v.prog)
		if err != nil {
			return Result{}, err
		}
	}
	s, err := session.Open(session.Spec{
		Workload: w,
		Program:  prog,
		Config:   opts.runConfig(pres.Config),
		Swap:     session.Fixed(planner.SwapPolicy()),
		Trace:    opts.Trace,
	})
	if err != nil {
		return Result{}, err
	}
	defer s.Close()
	r := s.RT
	if spec.Policy != prefetch.Compiled {
		for i := 0; i < r.NumSections(); i++ {
			var program []int64
			if spec.Policy == "programmed" {
				idx := i
				program = analysis.LowerPhases(v.phases, func(obj string, elem int64) (int64, bool) {
					sec, unit, ok := r.LineUnit(obj, elem)
					if !ok || sec != idx {
						return 0, false
					}
					return unit, true
				})
			}
			pol, err := prefetch.Build(spec, program)
			if err != nil {
				return Result{}, err
			}
			if err := r.InstallSectionPolicy(i, pol); err != nil {
				return Result{}, err
			}
		}
	}
	res, err := finish(sys, s, opts)
	if err != nil {
		return Result{}, err
	}
	res.PlanResult = pres
	if spec.Policy == prefetch.Compiled && !opts.faultsEnabled() {
		res.Time = pres.FinalTime
	}
	return res, nil
}
