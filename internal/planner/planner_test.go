package planner

import (
	"testing"

	"mira/internal/analysis"
	"mira/internal/apps/graphtraverse"
	"mira/internal/cache"
	"mira/internal/exec"
	"mira/internal/farmem"
	"mira/internal/ir"
	"mira/internal/rt"
	"mira/internal/sim"
)

func graphOpts(budget int64) Options {
	return Options{LocalBudget: budget, MaxIterations: 2}
}

func TestPlanImprovesGraphTraversal(t *testing.T) {
	w := graphtraverse.New(graphtraverse.Config{Edges: 8192, Nodes: 1024, Passes: 1, Seed: 7})
	budget := w.FullMemoryBytes() / 4 // 25% local memory
	res, err := Plan(w, graphOpts(budget))
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineTime <= 0 {
		t.Fatal("no baseline time")
	}
	if res.FinalTime >= res.BaselineTime {
		t.Fatalf("planner did not improve: baseline %v, final %v", res.BaselineTime, res.FinalTime)
	}
	speedup := float64(res.BaselineTime) / float64(res.FinalTime)
	t.Logf("baseline %v -> final %v (%.2fx), %d sections",
		res.BaselineTime, res.FinalTime, speedup, len(res.Config.Sections))
	if speedup < 1.5 {
		t.Fatalf("speedup %.2fx below 1.5x", speedup)
	}
	if len(res.Config.Sections) < 2 {
		t.Fatalf("expected >= 2 sections (edges + nodes), got %d", len(res.Config.Sections))
	}
}

func TestPlannedProgramStillCorrect(t *testing.T) {
	w := graphtraverse.New(graphtraverse.Config{Edges: 4096, Nodes: 512, Passes: 1, Seed: 11})
	budget := w.FullMemoryBytes() / 4
	res, err := Plan(w, graphOpts(budget))
	if err != nil {
		t.Fatal(err)
	}
	// Re-run the accepted compilation and verify output.
	node := farmem.NewNode(farmem.DefaultNodeConfig())
	r, err := rt.New(res.Config, node)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Bind(res.Program); err != nil {
		t.Fatal(err)
	}
	if err := w.Init(r); err != nil {
		t.Fatal(err)
	}
	ex, err := exec.New(res.Program, r, exec.Options{Params: w.Params()})
	if err != nil {
		t.Fatal(err)
	}
	clk := sim.NewClock(0)
	if _, err := ex.Run(clk); err != nil {
		t.Fatal(err)
	}
	if err := r.FlushAll(clk); err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(r); err != nil {
		t.Fatal(err)
	}
}

func TestPageModeStaysOnSwap(t *testing.T) {
	w := graphtraverse.New(graphtraverse.Config{Edges: 2048, Nodes: 256, Passes: 1, Seed: 3})
	opts := graphOpts(w.FullMemoryBytes() / 2)
	opts.Plane = "page"
	res, err := Plan(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Config.Sections) != 0 {
		t.Fatalf("page mode but %d sections created", len(res.Config.Sections))
	}
	if res.FinalTime != res.BaselineTime {
		t.Fatal("swap-only plan should report baseline time")
	}
}

func TestRollbackNeverRegresses(t *testing.T) {
	// Whatever the planner tries, the accepted result must never be
	// slower than the swap baseline.
	for _, fracBudget := range []int64{10, 4, 2} {
		w := graphtraverse.New(graphtraverse.Config{Edges: 2048, Nodes: 256, Passes: 1, Seed: 5})
		res, err := Plan(w, graphOpts(w.FullMemoryBytes()/fracBudget))
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalTime > res.BaselineTime {
			t.Fatalf("budget 1/%d: final %v worse than baseline %v",
				fracBudget, res.FinalTime, res.BaselineTime)
		}
	}
}

func TestThreeSectionSamplingAndILP(t *testing.T) {
	// With the third random array, the planner must create >= 3 sections
	// and run the sampling + ILP path.
	w := graphtraverse.New(graphtraverse.Config{Edges: 4096, Nodes: 512, Third: 1024, Passes: 1, Seed: 13})
	opts := graphOpts(w.FullMemoryBytes() / 3)
	opts.MaxIterations = 4
	res, err := Plan(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Config.Sections) < 3 {
		t.Fatalf("sections = %d, want >= 3", len(res.Config.Sections))
	}
	// The node (indirect) and rand3 (random) sections cache one 8 B span
	// per element, so the ILP's best point for each is every element's
	// span: 512·8 and 1024·8 B. The sampled sizes stop there, so the ILP
	// hands nothing past it to the swap pool, which the footprint-
	// proportional fallback would. The edge (sequential) section streams.
	var edgeSize, nodeSize, randSize int64
	for _, s := range res.Config.Sections {
		switch {
		case s.Cache.Structure == cache.Direct:
			edgeSize += s.Cache.SizeBytes
		case s.Cache.Name == "ind-nodes":
			nodeSize = s.Cache.SizeBytes
		case s.Cache.Name == "rand-rand3":
			randSize = s.Cache.SizeBytes
		}
	}
	if nodeSize != 512*8 || randSize != 1024*8 {
		t.Fatalf("node section %d B, rand3 section %d B: want every element's span, %d and %d B", nodeSize, randSize, 512*8, 1024*8)
	}
	if edgeSize == 0 {
		t.Fatal("no edge section")
	}
	if res.Config.SwapPool != 0 {
		t.Fatalf("swap pool %d B: the ILP budgeted past a span section's elements", res.Config.SwapPool)
	}
}

func TestLifetimeIntervals(t *testing.T) {
	b := ir.NewBuilder("phases")
	b.IntArray("a", 64)
	b.IntArray("bb", 64)
	fb := b.Func("main")
	fb.Loop(ir.C(0), ir.C(64), ir.C(1), func(i ir.Expr) {
		fb.Load("a", i, "")
	})
	fb.Loop(ir.C(0), ir.C(64), ir.C(1), func(i ir.Expr) {
		fb.Load("bb", i, "")
	})
	p := b.MustProgram()
	merged := map[string]*analysis.ObjectAccess{"a": {}, "bb": {}}
	iv, lastFunc := lifetimeIntervals(p, merged)
	if iv["a"][1] > iv["bb"][0]+1 {
		t.Fatalf("phase-disjoint objects overlap: a=%v bb=%v", iv["a"], iv["bb"])
	}
	if lastFunc["a"] != "main" || lastFunc["bb"] != "main" {
		t.Fatalf("lastFunc = %v", lastFunc)
	}
}

func TestSwapOnlyConfigRejectsTinyBudget(t *testing.T) {
	b := ir.NewBuilder("big-local")
	o := b.IntArray("l", 1<<20)
	o.Local = true
	b.Func("main")
	p := b.MustProgram()
	_, err := swapOnlyConfig(p, withDefaults(Options{LocalBudget: 1024}))
	if err == nil {
		t.Fatal("tiny budget accepted")
	}
}
