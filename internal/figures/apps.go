package figures

import (
	"fmt"

	"mira/internal/apps/dataframe"
	"mira/internal/apps/gpt2"
	"mira/internal/apps/mcf"
	"mira/internal/baselines/aifm"
	"mira/internal/harness"
	"mira/internal/planner"
	"mira/internal/workload"
)

func init() {
	register("fig16", "DataFrame: overall performance vs local memory", fig16)
	register("fig17", "GPT-2 inference: overall performance vs local memory", fig17)
	register("fig18", "MCF: overall performance vs local memory", fig18)
	register("fig21", "Per-technique breakdown on the three applications", fig21)
	register("fig23", "Data-access batching: avg/min/max on one vector", fig23)
}

func dataframeCfg(scale Scale) dataframe.Config {
	if scale == Quick {
		return dataframe.Config{Rows: 1 << 13, Seed: 2014}
	}
	return dataframe.Config{Rows: 1 << 16, Seed: 2014}
}

func gpt2Cfg(scale Scale) gpt2.Config {
	if scale == Quick {
		return gpt2.Config{Layers: 2, DModel: 32, DFF: 128, SeqLen: 16, Seed: 117}
	}
	return gpt2.Config{Layers: 6, DModel: 64, DFF: 256, SeqLen: 16, Seed: 117}
}

func mcfCfg(scale Scale) mcf.Config {
	if scale == Quick {
		return mcf.Config{Arcs: 2048, Nodes: 512, Iterations: 8, WalkLen: 32, Seed: 429}
	}
	return mcf.Config{Arcs: 8192, Nodes: 2048, Iterations: 24, WalkLen: 64, Seed: 429}
}

// appSweep is the overall-performance sweep for one workload constructor.
// extraFracs extends the sweep beyond full memory (the paper's MCF axis
// reaches 1.8x so AIFM's recovery from metadata exhaustion is visible).
func appSweep(scale Scale, mk func() workload.Workload, systems []harness.System, opts harness.Options, planIters int, extraFracs ...float64) (*Figure, error) {
	w := mk()
	native, err := harness.Run(harness.Native, w, opts)
	if err != nil {
		return nil, err
	}
	fig := &Figure{XLabel: "local memory fraction", YLabel: "relative performance (native=1)"}
	sweep := append(fractions(scale), extraFracs...)
	for _, sys := range systems {
		s := Series{Name: string(sys)}
		for _, frac := range sweep {
			o := opts
			o.Budget = int64(float64(w.FullMemoryBytes()) * frac)
			if sys == harness.Mira {
				o.Planner.MaxIterations = planIters
			}
			res, err := harness.Run(sys, mk(), o)
			if err != nil {
				return nil, fmt.Errorf("%s at %.0f%%: %w", sys, frac*100, err)
			}
			s.X = append(s.X, frac)
			s.Y = append(s.Y, relPerf(native.Time, res.Time))
			s.Absent = append(s.Absent, res.Failed)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// fig16: DataFrame pipeline; Mira trained on one input year and tested on
// another (the paper trains on 2014 taxi data, tests on 2015-2016).
func fig16(scale Scale) (*Figure, error) {
	cfg := dataframeCfg(scale)
	// AIFM's DataFrame implementation uses chunked remotable vectors.
	opts := harness.Options{AIFM: aifm.Options{ChunkBytes: 4096}}
	fig, err := appSweep(scale, func() workload.Workload { return dataframe.New(cfg) },
		[]harness.System{harness.Mira, harness.FastSwap, harness.Leap, harness.AIFM}, opts, 6)
	if err != nil {
		return nil, err
	}
	// Input adaptation: plan on the "2014" input, run the plan on a
	// different year (seed) — the compilation generalizes (§3).
	trainW := dataframe.New(cfg)
	budget := trainW.FullMemoryBytes() / 2
	plan, err := planner.Plan(trainW, planner.Options{LocalBudget: budget, MaxIterations: 3})
	if err != nil {
		return nil, err
	}
	testCfg := cfg
	testCfg.Seed = 2015
	testTime, err := runPlannedOn(dataframe.New(testCfg), plan)
	if err != nil {
		return nil, err
	}
	nativeTest, err := harness.Run(harness.Native, dataframe.New(testCfg), harness.Options{})
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"input adaptation: compilation trained on seed 2014 achieves %.3g relative performance on unseen seed-2015 data at 50%% memory",
		relPerf(nativeTest.Time, testTime)))
	return fig, nil
}

// fig17: GPT-2; AIFM is excluded (no tensor ops, as in the paper).
func fig17(scale Scale) (*Figure, error) {
	cfg := gpt2Cfg(scale)
	fig, err := appSweep(scale, func() workload.Workload { return gpt2.New(cfg) },
		[]harness.System{harness.Mira, harness.FastSwap, harness.Leap}, harness.Options{}, 8)
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"paper: Mira stays flat down to 4.5% local memory; our scaled model's per-layer working set is ~13% of full memory, so the flat region is proportionally shorter (see EXPERIMENTS.md)",
		"AIFM omitted: no matrix/ML operations (as in the paper)")
	return fig, nil
}

// fig18: MCF; AIFM uses its array library (per-element remotable pointers),
// whose metadata makes it fail below full memory.
func fig18(scale Scale) (*Figure, error) {
	cfg := mcfCfg(scale)
	// Per-element remotable pointers with full bookkeeping: the paper
	// reports AIFM-MCF failing below full local memory and reaching only
	// 26% at 1.8x memory.
	opts := harness.Options{AIFM: aifm.Options{MetaPerObject: 40}}
	fig, err := appSweep(scale, func() workload.Workload { return mcf.New(cfg) },
		[]harness.System{harness.Mira, harness.FastSwap, harness.Leap, harness.AIFM}, opts, 3,
		1.2, 1.5, 1.8)
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"AIFM runs its array library with per-element remotable-pointer metadata (40B/element); 'fail' entries reproduce the paper's failure below full memory")
	return fig, nil
}

// fig21: the Fig. 6 technique ladder on the three real applications.
func fig21(scale Scale) (*Figure, error) {
	type app struct {
		name string
		mk   func() workload.Workload
		frac float64
		iter int
	}
	apps := []app{
		{"dataframe", func() workload.Workload { return dataframe.New(dataframeCfg(scale)) }, 0.25, 6},
		{"gpt2", func() workload.Workload { return gpt2.New(gpt2Cfg(scale)) }, 0.25, 8},
		{"mcf", func() workload.Workload { return mcf.New(mcfCfg(scale)) }, 0.25, 3},
	}
	fig := &Figure{XLabel: "technique step", YLabel: "relative performance (native=1)"}
	for _, a := range apps {
		w := a.mk()
		native, err := harness.Run(harness.Native, w, harness.Options{})
		if err != nil {
			return nil, err
		}
		budget := int64(float64(w.FullMemoryBytes()) * a.frac)
		s, err := techniqueLadder(w, native.Time, budget, a.iter)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.name, err)
		}
		s.Name = a.name
		fig.Series = append(fig.Series, s)
	}
	for i, step := range techniqueSteps {
		fig.Notes = append(fig.Notes, fmt.Sprintf("step %d = %s", i, step.Name))
	}
	fig.Notes = append(fig.Notes, "local memory = 25% of full for each application")
	return fig, nil
}

// fig23: the three-operator batching job.
func fig23(scale Scale) (*Figure, error) {
	cfg := dataframeCfg(scale)
	cfg.BatchJobOnly = true
	w0 := dataframe.New(cfg)
	native, err := harness.Run(harness.Native, w0, harness.Options{})
	if err != nil {
		return nil, err
	}
	fig := &Figure{XLabel: "local memory fraction", YLabel: "relative performance (native=1)"}

	variants := []struct {
		name string
		mask planner.TechniqueMask
	}{
		{"mira+batching", planner.TechniqueMask{}},
		{"mira-no-batching", planner.TechniqueMask{NoBatching: true}},
	}
	for _, v := range variants {
		s := Series{Name: v.name}
		for _, frac := range fractions(scale) {
			w := dataframe.New(cfg)
			res, err := planner.Plan(w, planner.Options{
				LocalBudget:   int64(float64(w.FullMemoryBytes()) * frac),
				MaxIterations: 3,
				Techniques:    v.mask,
			})
			if err != nil {
				return nil, err
			}
			s.X = append(s.X, frac)
			s.Y = append(s.Y, relPerf(native.Time, res.FinalTime))
		}
		fig.Series = append(fig.Series, s)
	}
	for _, sys := range []harness.System{harness.FastSwap, harness.AIFM} {
		s := Series{Name: string(sys)}
		for _, frac := range fractions(scale) {
			w := dataframe.New(cfg)
			res, err := harness.Run(sys, w, harness.Options{
				Budget: int64(float64(w.FullMemoryBytes()) * frac),
				AIFM:   aifm.Options{ChunkBytes: 4096},
			})
			if err != nil {
				return nil, err
			}
			s.X = append(s.X, frac)
			s.Y = append(s.Y, relPerf(native.Time, res.Time))
			s.Absent = append(s.Absent, res.Failed)
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes, "the job runs avg, min, max as three consecutive loops over one vector; Mira fuses them and batch-fetches (§4.5)")
	return fig, nil
}
