package figures

import (
	"fmt"

	"mira/internal/apps/arraysum"
	"mira/internal/apps/dataframe"
	"mira/internal/apps/gpt2"
	"mira/internal/apps/graphtraverse"
	"mira/internal/apps/mcf"
	"mira/internal/baselines/aifm"
	"mira/internal/harness"
	"mira/internal/planner"
	"mira/internal/session"
	"mira/internal/sim"
	"mira/internal/workload"
)

func init() {
	register("fig19", "Run-time performance overhead at full local memory", fig19)
	register("fig20", "Metadata space overhead: Mira vs AIFM", fig20)
	register("scope", "Analysis-scope reduction and profiling overhead (§6.1)", scopeStats)
}

// overheadWorkloads is the paper's Fig. 19/20 set: the three applications,
// the graph-traversal example, and the array-sum microbenchmark.
func overheadWorkloads(scale Scale) []struct {
	name string
	mk   func() workload.Workload
	aifm *aifm.Options // nil = skip AIFM (gpt2)
} {
	return []struct {
		name string
		mk   func() workload.Workload
		aifm *aifm.Options
	}{
		{"arraysum", func() workload.Workload { return arraysum.New(arraysum.Config{N: 1 << 14, Seed: 1}) }, &aifm.Options{}},
		{"graph", func() workload.Workload { return graphtraverse.New(graphCfg(scale)) }, &aifm.Options{}},
		{"dataframe", func() workload.Workload { return dataframe.New(dataframeCfg(scale)) }, &aifm.Options{ChunkBytes: 4096}},
		{"mcf", func() workload.Workload { return mcf.New(mcfCfg(scale)) }, &aifm.Options{MetaPerObject: 40}},
		{"gpt2", func() workload.Workload { return gpt2.New(gpt2Cfg(scale)) }, nil},
	}
}

// openPlanned starts an already-planned compilation on a (possibly
// different-input) workload.
func openPlanned(w workload.Workload, plan *planner.Result) (*session.Session, error) {
	return session.Open(session.Spec{Workload: w, Program: plan.Program, Config: plan.Config, Swap: session.NoPrefetch})
}

// runPlannedOn executes an already-planned compilation against a (possibly
// different-input) workload — the input-adaptation test of §3.
func runPlannedOn(w workload.Workload, plan *planner.Result) (sim.Duration, error) {
	s, err := openPlanned(w, plan)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	if _, err := s.Run(); err != nil {
		return 0, err
	}
	st, err := s.Finish(false)
	return st.Time, err
}

// fig19: run-time overhead at 100% local memory — Mira and AIFM relative to
// native. The paper's point: AIFM is far from native even with all data
// local (per-dereference software costs), while Mira's native-load
// conversion keeps it close.
func fig19(scale Scale) (*Figure, error) {
	fig := &Figure{XLabel: "workload index", YLabel: "relative performance at 100% memory (native=1)"}
	mira := Series{Name: "mira"}
	aifmS := Series{Name: "aifm"}
	for i, wl := range overheadWorkloads(scale) {
		w := wl.mk()
		native, err := harness.Run(harness.Native, w, harness.Options{})
		if err != nil {
			return nil, err
		}
		budget := w.FullMemoryBytes() + w.FullMemoryBytes()/4
		res, err := harness.Run(harness.Mira, wl.mk(), harness.Options{Budget: budget})
		if err != nil {
			return nil, err
		}
		mira.X = append(mira.X, float64(i))
		mira.Y = append(mira.Y, relPerf(native.Time, res.Time))

		aifmS.X = append(aifmS.X, float64(i))
		if wl.aifm == nil {
			aifmS.Y = append(aifmS.Y, 0)
			aifmS.Absent = append(aifmS.Absent, true)
		} else {
			ares, err := harness.Run(harness.AIFM, wl.mk(), harness.Options{Budget: budget, AIFM: *wl.aifm})
			if err != nil {
				return nil, err
			}
			aifmS.Y = append(aifmS.Y, relPerf(native.Time, ares.Time))
			aifmS.Absent = append(aifmS.Absent, ares.Failed)
		}
		fig.Notes = append(fig.Notes, fmt.Sprintf("workload %d = %s", i, wl.name))
	}
	fig.Series = []Series{mira, aifmS}
	return fig, nil
}

// fig20: metadata bytes, Mira vs AIFM, at full local memory.
func fig20(scale Scale) (*Figure, error) {
	fig := &Figure{XLabel: "workload index", YLabel: "metadata bytes"}
	mira := Series{Name: "mira"}
	aifmS := Series{Name: "aifm"}
	for i, wl := range overheadWorkloads(scale) {
		w := wl.mk()
		budget := w.FullMemoryBytes() + w.FullMemoryBytes()/4
		plan, err := planner.Plan(w, planner.Options{LocalBudget: budget, MaxIterations: 3})
		if err != nil {
			return nil, err
		}
		s, err := openPlanned(w, plan)
		if err != nil {
			return nil, err
		}
		mira.X = append(mira.X, float64(i))
		mira.Y = append(mira.Y, float64(s.RT.MetadataBytes()))
		s.Close()

		aifmS.X = append(aifmS.X, float64(i))
		if wl.aifm == nil {
			aifmS.Y = append(aifmS.Y, 0)
			aifmS.Absent = append(aifmS.Absent, true)
		} else {
			opts := *wl.aifm
			opts.LocalBudget = budget
			ar, err := aifm.New(wl.mk(), opts)
			if err != nil {
				return nil, err
			}
			aifmS.Y = append(aifmS.Y, float64(ar.MetadataBytes()))
			aifmS.Absent = append(aifmS.Absent, false)
		}
		fig.Notes = append(fig.Notes, fmt.Sprintf("workload %d = %s", i, wl.name))
	}
	fig.Series = []Series{mira, aifmS}
	fig.Notes = append(fig.Notes, "paper: Mira's per-line metadata is far below AIFM's per-remotable-pointer metadata")
	return fig, nil
}

// scopeStats reproduces §6.1's analysis-scope and profiling-overhead
// numbers: the profiler narrows MCF from its whole program to a few
// functions, and GPT-2 from 1000+ allocation sites to a fraction; profiling
// probes cost under 1%.
func scopeStats(scale Scale) (*Figure, error) {
	fig := &Figure{XLabel: "stat index", YLabel: "value"}
	var s Series
	s.Name = "value"
	note := func(format string, args ...interface{}) {
		fig.Notes = append(fig.Notes, fmt.Sprintf(format, args...))
	}
	idx := 0
	add := func(v float64, format string, args ...interface{}) {
		s.X = append(s.X, float64(idx))
		s.Y = append(s.Y, v)
		note("stat %d: "+format, append([]interface{}{idx}, args...)...)
		idx++
	}

	// Analysis-scope reduction (functions selected vs total).
	for _, wl := range []struct {
		name string
		mk   func() workload.Workload
	}{
		{"mcf", func() workload.Workload { return mcf.New(mcfCfg(scale)) }},
		{"gpt2", func() workload.Workload { return gpt2.New(gpt2Cfg(scale)) }},
	} {
		w := wl.mk()
		budget := w.FullMemoryBytes() / 2
		plan, err := planner.Plan(w, planner.Options{LocalBudget: budget, MaxIterations: 1})
		if err != nil {
			return nil, err
		}
		totalFuncs := len(w.Program().Funcs)
		totalObjs := 0
		for _, o := range w.Program().Objects {
			if !o.Local {
				totalObjs++
			}
		}
		selFuncs, selObjs := 0, 0
		if len(plan.Iterations) > 0 {
			selFuncs = len(plan.Iterations[0].Funcs)
			selObjs = len(plan.Iterations[0].Objects)
		}
		add(float64(selFuncs), "%s: first iteration analyzes %d of %d functions", wl.name, selFuncs, totalFuncs)
		add(float64(selObjs), "%s: first iteration analyzes %d of %d allocation sites", wl.name, selObjs, totalObjs)
	}

	// Profiling overhead: run each app with and without probes.
	for _, wl := range []struct {
		name string
		mk   func() workload.Workload
	}{
		{"dataframe", func() workload.Workload { return dataframe.New(dataframeCfg(scale)) }},
		{"gpt2", func() workload.Workload { return gpt2.New(gpt2Cfg(scale)) }},
		{"mcf", func() workload.Workload { return mcf.New(mcfCfg(scale)) }},
	} {
		w := wl.mk()
		budget := w.FullMemoryBytes() / 2
		off, err := profiledRun(w, budget, false)
		if err != nil {
			return nil, err
		}
		on, err := profiledRun(wl.mk(), budget, true)
		if err != nil {
			return nil, err
		}
		pct := 100 * (float64(on) - float64(off)) / float64(off)
		add(pct, "%s: profiling adds %.2f%% (paper: 0.4-0.7%%)", wl.name, pct)
	}
	fig.Series = []Series{s}
	return fig, nil
}

// profiledRun executes on the swap configuration with probes on or off.
func profiledRun(w workload.Workload, budget int64, profiling bool) (sim.Duration, error) {
	cfg, err := session.SwapOnly(w.Program(), budget)
	if err != nil {
		return 0, err
	}
	cfg.Profiling = profiling
	s, err := session.Open(session.Spec{Workload: w, Config: cfg, Swap: session.NoPrefetch})
	if err != nil {
		return 0, err
	}
	defer s.Close()
	return s.Run()
}
