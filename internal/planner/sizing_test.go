package planner

import (
	"slices"
	"testing"

	"mira/internal/apps/dataframe"
	"mira/internal/apps/mcf"
	"mira/internal/cache"
	"mira/internal/codegen"
	"mira/internal/ir"
	"mira/internal/rt"
	"mira/internal/sim"
)

func draftsOf(sizes []int64, line int) []*sectionDraft {
	out := make([]*sectionDraft, len(sizes))
	for i, sz := range sizes {
		out[i] = &sectionDraft{
			name:      "d",
			lineBytes: line,
			sizeBytes: sz,
			structure: cache.Direct,
		}
	}
	return out
}

func TestNormalizeSizesNoOpUnderBudget(t *testing.T) {
	ds := draftsOf([]int64{1024, 2048}, 128)
	normalizeSizes(ds, 4096)
	if ds[0].sizeBytes != 1024 || ds[1].sizeBytes != 2048 {
		t.Fatalf("under-budget drafts resized: %d %d", ds[0].sizeBytes, ds[1].sizeBytes)
	}
}

func TestNormalizeSizesProportionalShrink(t *testing.T) {
	ds := draftsOf([]int64{6000, 2000}, 128)
	normalizeSizes(ds, 4000)
	var total int64
	for _, d := range ds {
		total += d.sizeBytes
		if d.sizeBytes < 128 {
			t.Fatalf("draft below line floor: %d", d.sizeBytes)
		}
	}
	if total > 4000 {
		t.Fatalf("shrink overshot budget: %d", total)
	}
	if ds[0].sizeBytes <= ds[1].sizeBytes {
		t.Fatal("proportionality lost: larger draft no longer larger")
	}
}

func TestNormalizeSizesLineFloorApplied(t *testing.T) {
	ds := draftsOf([]int64{10, 20}, 256)
	normalizeSizes(ds, 1<<20)
	if ds[0].sizeBytes != 256 || ds[1].sizeBytes != 256 {
		t.Fatalf("line floor not applied: %d %d", ds[0].sizeBytes, ds[1].sizeBytes)
	}
}

func TestNormalizeSizesLastResortShrinkToLines(t *testing.T) {
	// Proportional shares still overshoot once the small draft hits its
	// line floor: the last-resort pass collapses everything to one line.
	ds := draftsOf([]int64{8192, 256}, 128)
	normalizeSizes(ds, 600)
	for i, d := range ds {
		if d.sizeBytes != 128 {
			t.Fatalf("draft %d not collapsed to a line: %d", i, d.sizeBytes)
		}
	}
}

func TestNormalizeSizesImpossibleBudgetLeavesFloors(t *testing.T) {
	// Even one line per draft exceeds the budget; normalize must leave
	// the floors (Validate rejects later) rather than loop forever.
	ds := draftsOf([]int64{4096, 4096}, 512)
	normalizeSizes(ds, 100)
	for _, d := range ds {
		if d.sizeBytes != 512 {
			t.Fatalf("floor abandoned: %d", d.sizeBytes)
		}
	}
}

func TestAtLeast(t *testing.T) {
	// Fraction already above the floor: unchanged.
	if got := atLeast(0.5, 1, 10); got != 0.5 {
		t.Fatalf("atLeast(0.5,1,10) = %v", got)
	}
	// Floor dominates: k/n.
	if got := atLeast(0.1, 3, 10); got != 0.3 {
		t.Fatalf("atLeast(0.1,3,10) = %v", got)
	}
	// Degenerate n.
	if got := atLeast(0.25, 2, 0); got != 0.25 {
		t.Fatalf("atLeast with n=0 = %v", got)
	}
}

func TestPlanTinyBudgetDegradesGracefully(t *testing.T) {
	w := dataframe.New(dataframe.Config{Rows: 4096, Seed: 1})
	// A budget too small for any cache section must either error or fall
	// back to the iteration-0 swap configuration — candidate configs the
	// runtime rejects are rolled back, never surfaced as failures.
	res, err := Plan(w, Options{LocalBudget: 64, MaxIterations: 2})
	if err != nil {
		return // an explicit error is acceptable
	}
	if res.FinalTime <= 0 || res.FinalTime > res.BaselineTime {
		t.Fatalf("tiny budget regressed past the swap baseline: final %v baseline %v",
			res.FinalTime, res.BaselineTime)
	}
	// Whatever was accepted must fit the budget.
	var used int64 = res.Config.SwapPool
	for _, sec := range res.Config.Sections {
		used += sec.Cache.SizeBytes
	}
	if used > 64 {
		t.Fatalf("accepted config uses %d bytes of a 64-byte budget", used)
	}
}

func TestPlanZeroBudgetDefaulted(t *testing.T) {
	// Zero budget means "use the default fraction" per withDefaults —
	// Plan should succeed on a small workload.
	w := dataframe.New(dataframe.Config{Rows: 1024, Seed: 1})
	res, err := Plan(w, Options{MaxIterations: 1})
	if err != nil {
		t.Fatalf("zero-budget plan failed: %v", err)
	}
	if res.FinalTime <= 0 {
		t.Fatal("no time recorded")
	}
}

// mcfDrafts are the sampled sections buildConfig makes of the benchmark's mcf
// at a quarter of its footprint: the re-scanned arcs and the 16 B count
// spans of the indirect nodes, 512 of them (8,192 B).
func mcfDrafts() (arcs, nodes *sectionDraft) {
	arcs = &sectionDraft{name: "seqr-arcs", structure: cache.Direct, lineBytes: 1536, members: []string{"arcs"},
		seqLike: true, reused: true, interval: [2]int{6, 27}}
	nodes = &sectionDraft{name: "ind-nodes", structure: cache.SetAssoc, ways: 4, lineBytes: 16, stride: 64,
		members: []string{"nodes"}, interval: [2]int{9, 24}}
	return arcs, nodes
}

// TestSampleRunsItsOwnPlan: a sizing sample times the program buildPlan gives
// at the sample's sizes, not the draft's. On the benchmark's mcf at a
// quarter, the nodes section's gather window at 4,915 B differs from the one
// at 8,192 B, so one program for both samples would time one of them wrongly.
func TestSampleRunsItsOwnPlan(t *testing.T) {
	w := benchMCF()
	prog := w.Program()
	opts := withDefaults(Options{LocalBudget: w.FullMemoryBytes() / 4})
	report, _, err := analyzeAll(prog)
	if err != nil {
		t.Fatal(err)
	}
	merged := scopeAccess(report, []string{"arcs", "nodes"})
	arcs, nodes := mcfDrafts()
	drafts := []*sectionDraft{arcs, nodes}
	const avail, dElems = 24576, 4
	l := newLedger(w)
	planAt := func() *codegen.Plan { return buildPlan(prog, merged, drafts, dElems, opts.Techniques, opts.link()) }
	build := func() (*codegen.Plan, *ir.Program, error) {
		plan := planAt()
		out, err := l.compile(prog, plan)
		return plan, out, err
	}
	windows := map[int64]int64{}
	for _, size := range []int64{4915, 8192} {
		if _, _, err := sampleRun(l, build, prog, drafts, drafts, 1, size, avail, 0, opts); err != nil {
			t.Fatal(err)
		}
		ran := l.runs[len(l.runs)-1]
		// The plan at the sizes the sample's configuration gave its sections.
		arcs.sizeBytes, nodes.sizeBytes = ran.cfg.Sections[0].Cache.SizeBytes, ran.cfg.Sections[1].Cache.SizeBytes
		want := planAt()
		arcs.sizeBytes, nodes.sizeBytes = 0, 0
		prog, err := codegen.Apply(prog, want)
		if err != nil {
			t.Fatal(err)
		}
		if ir.Print(ran.prog) != ir.Print(prog) {
			t.Errorf("nodes at %d B: the sample timed another program than its sizes plan", size)
		}
		windows[size] = want.Objects["nodes"].GatherWindow
	}
	if windows[4915] == windows[8192] {
		t.Errorf("nodes gathers %d elements at 4,915 B and at 8,192 B: the samples do not tell plans apart", windows[4915])
	}
}

// TestMCFNodesGetTheirSpans: on the benchmark's mcf at a quarter, the ILP
// gives the indirect nodes every one of their 16 B spans (8,192 B) at seeds
// 1–10. A score that is a share of the run can price the 4,915 B section
// lower though it makes the run 74 % slower.
func TestMCFNodesGetTheirSpans(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		w := mcf.New(mcf.Config{Arcs: 2048, Nodes: 512, Iterations: 3, WalkLen: 64,
			Seed: sim.SplitSeed(seed, "app/mcf")&0x3fffffff | 1})
		res, err := Plan(w, Options{LocalBudget: w.FullMemoryBytes() / 4})
		if err != nil {
			t.Fatal(err)
		}
		i := slices.IndexFunc(res.Config.Sections, func(s rt.SectionSpec) bool { return s.Cache.Name == "ind-nodes" })
		if i < 0 {
			t.Errorf("seed %d: no ind-nodes section", seed)
			continue
		}
		if got := res.Config.Sections[i].Cache.SizeBytes; got != 8192 {
			t.Errorf("seed %d: ind-nodes holds %d B, want all 8,192 B of its spans", seed, got)
		}
	}
}
