package figures

import (
	"fmt"

	"mira/internal/apps/graphtraverse"
	"mira/internal/baselines/fastswap"
	"mira/internal/cache"
	"mira/internal/harness"
	"mira/internal/netmodel"
	"mira/internal/planner"
	"mira/internal/rt"
	"mira/internal/session"
	"mira/internal/sim"
	"mira/internal/solver"
)

func init() {
	register("fig5", "Graph traversal: overall performance vs local memory", fig5)
	register("fig6", "Graph traversal: effect of Mira techniques", fig6)
	register("fig7", "Cache section separation on/off", fig7)
	register("fig8", "Node-array miss rate: joint vs separated cache", fig8)
	register("fig9", "Cache performance overhead vs line size", fig9)
	register("fig10", "Cache structure of the node section vs local memory", fig10)
	register("fig11", "Section overhead vs sampled section size", fig11)
	register("fig12", "Local-memory partitions vs ILP's choice", fig12)
	register("fig15", "Prefetching and eviction hints (vs Leap)", fig15)
	register("fig22", "Selective transmission (partial-struct fetch)", fig22)
}

func graphCfg(scale Scale) graphtraverse.Config {
	if scale == Quick {
		return graphtraverse.Config{Edges: 4096, Nodes: 4096, Passes: 2, Seed: 2023}
	}
	return graphtraverse.Config{Edges: 16384, Nodes: 8192, Passes: 4, Seed: 2023}
}

// sweepSystems runs the systems over the memory fractions for one workload
// constructor (fresh workload per run keeps prefetcher state independent).
func sweepSystems(scale Scale, mk func() *graphtraverse.Workload, systems []harness.System) (*Figure, error) {
	w := mk()
	native, err := harness.Run(harness.Native, w, harness.Options{})
	if err != nil {
		return nil, err
	}
	fig := &Figure{XLabel: "local memory fraction", YLabel: "relative performance (native=1)"}
	for _, sys := range systems {
		s := Series{Name: string(sys)}
		for _, frac := range fractions(scale) {
			budget := int64(float64(w.FullMemoryBytes()) * frac)
			res, err := harness.Run(sys, mk(), harness.Options{Budget: budget})
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

// fig5: the rundown example's overall comparison.
func fig5(scale Scale) (*Figure, error) {
	cfg := graphCfg(scale)
	return sweepSystems(scale, func() *graphtraverse.Workload { return graphtraverse.New(cfg) },
		[]harness.System{harness.Mira, harness.FastSwap, harness.Leap, harness.AIFM})
}

// techniqueSteps is the cumulative ladder Figs. 6 and 21 use.
var techniqueSteps = []struct {
	Name string
	Opts func() planner.Options
}{
	{"swap", func() planner.Options { return planner.Options{Plane: "page"} }},
	{"+separation", func() planner.Options {
		return planner.Options{Techniques: planner.TechniqueMask{
			ForceFullAssoc: true,
			NoPrefetch:     true, NoEvictHints: true, NoBatching: true, NoNative: true, NoSelective: true, NoRWOpt: true,
		}}
	}},
	{"+structure", func() planner.Options {
		return planner.Options{Techniques: planner.TechniqueMask{
			NoPrefetch: true, NoEvictHints: true, NoBatching: true, NoNative: true, NoSelective: true, NoRWOpt: true,
		}}
	}},
	{"+prefetch", func() planner.Options {
		return planner.Options{Techniques: planner.TechniqueMask{
			NoEvictHints: true, NoBatching: true, NoSelective: true, NoRWOpt: true,
		}}
	}},
	{"+evict-hints", func() planner.Options {
		return planner.Options{Techniques: planner.TechniqueMask{
			NoBatching: true, NoSelective: true, NoRWOpt: true,
		}}
	}},
	{"+batch/selective/rw", func() planner.Options { return planner.Options{} }},
}

// techniqueLadder runs the cumulative ladder for one workload at one budget.
func techniqueLadder(w planner.Workload, native sim.Duration, budget int64, iters int) (Series, error) {
	s := Series{Name: "mira"}
	for i, step := range techniqueSteps {
		opts := step.Opts()
		opts.LocalBudget = budget
		opts.MaxIterations = iters
		res, err := planner.Plan(w, opts)
		if err != nil {
			return Series{}, fmt.Errorf("step %s: %w", step.Name, err)
		}
		s.X = append(s.X, float64(i))
		s.Y = append(s.Y, relPerf(native, res.FinalTime))
	}
	return s, nil
}

// fig6: each Mira technique added one at a time on the graph example.
func fig6(scale Scale) (*Figure, error) {
	w := graphtraverse.New(graphCfg(scale))
	native, err := harness.Run(harness.Native, w, harness.Options{})
	if err != nil {
		return nil, err
	}
	budget := w.FullMemoryBytes() / 4
	s, err := techniqueLadder(w, native.Time, budget, 3)
	if err != nil {
		return nil, err
	}
	fig := &Figure{XLabel: "technique step", YLabel: "relative performance (native=1)", Series: []Series{s}}
	for i, step := range techniqueSteps {
		fig.Notes = append(fig.Notes, fmt.Sprintf("step %d = %s", i, step.Name))
	}
	fig.Notes = append(fig.Notes, "local memory = 25% of full")
	return fig, nil
}

// fig7: separation on/off across the sweep, with AIFM as reference.
func fig7(scale Scale) (*Figure, error) {
	cfg := graphCfg(scale)
	return sweepSystems(scale, func() *graphtraverse.Workload { return graphtraverse.New(cfg) },
		[]harness.System{harness.Mira, harness.MiraSwap, harness.AIFM})
}

// fig8: the node array's miss rate with and without separation. The edge
// array is made much larger than the node array so the joint cache shows
// the paper's flooding effect: the streamed edges occupy space the nodes
// need ("the sequentially accessed edge array ... ends up taking more space
// than what it needs").
func fig8(scale Scale) (*Figure, error) {
	cfg := graphCfg(scale)
	cfg.Nodes = cfg.Nodes * 2 // node footprint well above the swept budgets
	cfg.Skew = 3.5            // realistic skewed node popularity
	cfg.Passes = 4            // steady-state misses, not compulsory ones
	fig := &Figure{XLabel: "local memory fraction", YLabel: "node-array miss rate"}
	joint := Series{Name: "joint"}
	sep := Series{Name: "separated"}
	for _, frac := range fractions(scale) {
		w := graphtraverse.New(cfg)
		budget := int64(float64(w.FullMemoryBytes()) * frac)
		jm, err := graphNodeMissRate(w, budget, true)
		if err != nil {
			return nil, err
		}
		w2 := graphtraverse.New(cfg)
		sm, err := graphNodeMissRate(w2, budget, false)
		if err != nil {
			return nil, err
		}
		joint.X = append(joint.X, frac)
		joint.Y = append(joint.Y, jm)
		sep.X = append(sep.X, frac)
		sep.Y = append(sep.Y, sm)
	}
	fig.Series = []Series{joint, sep}
	fig.Notes = append(fig.Notes, "paper: separation drops node miss rate by 44-78%")
	return fig, nil
}

// graphNodeMissRate runs the graph example with a joint (single shared
// section) or separated (edges/nodes sections) configuration and reports
// the node array's miss rate.
func graphNodeMissRate(w *graphtraverse.Workload, budget int64, jointCache bool) (float64, error) {
	if jointCache {
		// The joint cache is the generic page-swap configuration every
		// object starts in: 4 KB pages, global LRU, cluster readahead
		// on every fault — whose useless prefetches on random node
		// faults pollute the pool the nodes need.
		cfg, err := session.SwapOnly(w.Program(), budget)
		if err != nil {
			return 0, err
		}
		s, err := session.Open(session.Spec{Workload: w, Config: cfg, Swap: session.Fixed(fastswap.Readahead{N: 8})})
		if err != nil {
			return 0, err
		}
		defer s.Close()
		if _, err := s.Run(); err != nil {
			return 0, err
		}
		faults := s.RT.SwapFaultsIn("nodes")
		accesses := w.Config().Edges * w.Config().Passes * 2 * 2 // 2 nodes/edge, read+write each
		return float64(faults) / float64(accesses), nil
	}
	edgeSize := budget / 8
	cfg := rt.Config{
		LocalBudget: budget,
		Sections: []rt.SectionSpec{
			{Cache: cache.Config{Name: "edges", Structure: cache.Direct, LineBytes: 2048, SizeBytes: edgeSize}},
			{Cache: cache.Config{Name: "nodes", Structure: cache.SetAssoc, Ways: 4, LineBytes: 128, SizeBytes: budget - edgeSize}},
		},
		Placements: map[string]rt.Placement{
			"edges": {Kind: rt.PlaceSection, Section: 0},
			"nodes": {Kind: rt.PlaceSection, Section: 1},
		},
	}
	r, _, err := runGraphConfig(w, cfg)
	if err != nil {
		return 0, err
	}
	hits, misses := r.ObjectStats("nodes")
	if hits+misses == 0 {
		return 0, fmt.Errorf("fig8: no node accesses recorded")
	}
	return float64(misses) / float64(hits+misses), nil
}

// runGraphConfig executes the graph program under an explicit runtime
// configuration. The runtime it returns is closed: its counters are there to
// read, its far memory is not.
func runGraphConfig(w *graphtraverse.Workload, cfg rt.Config) (*rt.Runtime, sim.Duration, error) {
	s, err := session.Open(session.Spec{Workload: w, Config: cfg, Swap: session.NoPrefetch})
	if err != nil {
		return nil, 0, err
	}
	defer s.Close()
	if _, err := s.Run(); err != nil {
		return nil, 0, err
	}
	st, err := s.Finish(false)
	return s.RT, st.Time, err
}

// sectionOverhead estimates a section's cache performance overhead (§4.1)
// from its counters.
func sectionOverhead(r *rt.Runtime, idx int, total sim.Duration) float64 {
	st := r.SectionStats(idx)
	cost := rt.DefaultCostModel()
	net := netmodel.DefaultConfig()
	secTime := sim.Duration(st.Hits+st.Misses)*cost.Lookup(r.SectionConfig(idx).Structure) +
		sim.Duration(st.Misses)*(cost.MissHandling+net.OneSidedCost(r.SectionConfig(idx).LineBytes))
	rest := total - secTime
	if rest <= 0 {
		return float64(secTime)
	}
	return float64(secTime) / float64(rest)
}

// fig9: overhead vs line size for the node and edge sections. The node
// array uses the skewed (realistic-graph) endpoint distribution: with hot
// nodes scattered across the array, lines larger than one element waste
// capacity on cold neighbours, so the smallest line holding the accessed
// unit (128 B) wins — the paper's result.
func fig9(scale Scale) (*Figure, error) {
	cfg := graphCfg(scale)
	cfg.Nodes = cfg.Nodes * 2
	cfg.Skew = 3.5
	lineSizes := []int{64, 128, 256, 512, 1024, 2048, 4096, 8192}
	if scale == Quick {
		lineSizes = []int{128, 512, 2048}
	}
	fig := &Figure{XLabel: "cache line bytes", YLabel: "cache performance overhead"}
	nodeS := Series{Name: "node-section"}
	edgeS := Series{Name: "edge-section"}
	for _, ls := range lineSizes {
		w := graphtraverse.New(cfg)
		budget := w.FullMemoryBytes() / 4
		nodeLine := ls
		if nodeLine < graphtraverse.NodeBytes {
			nodeLine = graphtraverse.NodeBytes // must hold the accessed unit
		}
		edgeSize := budget / 8
		rcfg := rt.Config{
			LocalBudget: budget,
			Sections: []rt.SectionSpec{
				{Cache: cache.Config{Name: "edges", Structure: cache.Direct, LineBytes: ls, SizeBytes: edgeSize}},
				{Cache: cache.Config{Name: "nodes", Structure: cache.SetAssoc, Ways: 4, LineBytes: nodeLine, SizeBytes: budget - edgeSize}},
			},
			Placements: map[string]rt.Placement{
				"edges": {Kind: rt.PlaceSection, Section: 0},
				"nodes": {Kind: rt.PlaceSection, Section: 1},
			},
		}
		r, total, err := runGraphConfig(w, rcfg)
		if err != nil {
			return nil, err
		}
		edgeS.X = append(edgeS.X, float64(ls))
		edgeS.Y = append(edgeS.Y, sectionOverhead(r, 0, total))
		nodeS.X = append(nodeS.X, float64(nodeLine))
		nodeS.Y = append(nodeS.Y, sectionOverhead(r, 1, total))
	}
	fig.Series = []Series{nodeS, edgeS}
	fig.Notes = append(fig.Notes,
		"node line sizes below the 128B element clamp to 128B (the smallest unit holding the accessed data)",
		"paper: edge overhead drops until ~2KB (network knee); node best at 128B")
	return fig, nil
}

// fig10: node-section structure sweep across memory sizes. Uses the skewed
// endpoint distribution: the scattered hot set is what makes conflict
// misses hurt a direct-mapped section while full associativity keeps the
// hot lines resident.
func fig10(scale Scale) (*Figure, error) {
	cfg := graphCfg(scale)
	cfg.Nodes = cfg.Nodes * 2
	cfg.Skew = 3.5
	fig := &Figure{XLabel: "local memory fraction", YLabel: "relative performance (native=1)"}
	w0 := graphtraverse.New(cfg)
	native, err := harness.Run(harness.Native, w0, harness.Options{})
	if err != nil {
		return nil, err
	}
	structures := []struct {
		name string
		s    cache.Structure
		ways int
	}{
		{"direct", cache.Direct, 0},
		{"set-assoc", cache.SetAssoc, 4},
		{"full-assoc", cache.FullAssoc, 0},
	}
	for _, st := range structures {
		s := Series{Name: st.name}
		for _, frac := range fractions(scale) {
			w := graphtraverse.New(cfg)
			budget := int64(float64(w.FullMemoryBytes()) * frac)
			edgeSize := budget / 8
			rcfg := rt.Config{
				LocalBudget: budget,
				Sections: []rt.SectionSpec{
					{Cache: cache.Config{Name: "edges", Structure: cache.Direct, LineBytes: 2048, SizeBytes: edgeSize}},
					{Cache: cache.Config{Name: "nodes", Structure: st.s, Ways: st.ways, LineBytes: 128, SizeBytes: budget - edgeSize}},
				},
				Placements: map[string]rt.Placement{
					"edges": {Kind: rt.PlaceSection, Section: 0},
					"nodes": {Kind: rt.PlaceSection, Section: 1},
				},
			}
			_, total, err := runGraphConfig(w, rcfg)
			if err != nil {
				return nil, err
			}
			s.X = append(s.X, frac)
			s.Y = append(s.Y, relPerf(native.Time, total))
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes, "paper: full associativity wins as local memory shrinks (fewer conflict misses), at a constant lookup overhead")
	return fig, nil
}

// thirdGraphCfg adds the uniformly-random third array (Figs. 11-12).
func thirdGraphCfg(scale Scale) graphtraverse.Config {
	cfg := graphCfg(scale)
	cfg.Third = cfg.Nodes
	return cfg
}

// fig11: per-section overhead at sampled sizes.
func fig11(scale Scale) (*Figure, error) {
	cfg := thirdGraphCfg(scale)
	ratios := []float64{0.1, 0.2, 0.4, 0.6, 0.8, 1.0}
	if scale == Quick {
		ratios = []float64{0.2, 0.6, 1.0}
	}
	w0 := graphtraverse.New(cfg)
	budget := w0.FullMemoryBytes() / 3
	fig := &Figure{XLabel: "section size (fraction of local memory)", YLabel: "cache performance overhead"}
	names := []string{"edges", "nodes", "rand3"}
	for target := 0; target < 3; target++ {
		s := Series{Name: names[target] + "-section"}
		for _, ratio := range ratios {
			w := graphtraverse.New(cfg)
			r, total, err := runThreeSection(w, budget, target, ratio)
			if err != nil {
				return nil, err
			}
			s.X = append(s.X, ratio)
			s.Y = append(s.Y, sectionOverhead(r, target, total))
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes, "paper: the sequential edge section flattens at a small size; node and random sections are non-linear")
	return fig, nil
}

// runThreeSection sizes section `target` at ratio of the budget, splitting
// the rest between the other two.
func runThreeSection(w *graphtraverse.Workload, budget int64, target int, ratio float64) (*rt.Runtime, sim.Duration, error) {
	sizes := make([]int64, 3)
	tgt := int64(float64(budget) * ratio)
	rest := budget - tgt
	if rest < 4096 {
		rest = 4096
	}
	for i := range sizes {
		if i == target {
			sizes[i] = tgt
		} else {
			sizes[i] = rest / 2
		}
	}
	for i, min := range []int64{2048, 128, 64} {
		if sizes[i] < min*4 {
			sizes[i] = min * 4
		}
	}
	rcfg := rt.Config{
		LocalBudget: budget * 2, // allow over-provisioning while sampling single-section ratios
		Sections: []rt.SectionSpec{
			{Cache: cache.Config{Name: "edges", Structure: cache.Direct, LineBytes: 2048, SizeBytes: sizes[0]}},
			{Cache: cache.Config{Name: "nodes", Structure: cache.SetAssoc, Ways: 4, LineBytes: 128, SizeBytes: sizes[1]}},
			{Cache: cache.Config{Name: "rand3", Structure: cache.FullAssoc, LineBytes: 64, SizeBytes: sizes[2]}},
		},
		Placements: map[string]rt.Placement{
			"edges": {Kind: rt.PlaceSection, Section: 0},
			"nodes": {Kind: rt.PlaceSection, Section: 1},
			"rand3": {Kind: rt.PlaceSection, Section: 2},
		},
	}
	return runGraphConfig(w, rcfg)
}

// runGraphThree runs the three-array graph example with explicit section
// sizes (edges direct/2KB, nodes set-assoc/128B, rand3 full-assoc/64B).
func runGraphThree(w *graphtraverse.Workload, budget, edgeSize, nodeSize, randSize int64) (*rt.Runtime, sim.Duration, error) {
	if nodeSize < 4*128 {
		nodeSize = 4 * 128
	}
	if randSize < 4*64 {
		randSize = 4 * 64
	}
	rcfg := rt.Config{
		LocalBudget: budget,
		Sections: []rt.SectionSpec{
			{Cache: cache.Config{Name: "edges", Structure: cache.Direct, LineBytes: 2048, SizeBytes: edgeSize}},
			{Cache: cache.Config{Name: "nodes", Structure: cache.SetAssoc, Ways: 4, LineBytes: 128, SizeBytes: nodeSize}},
			{Cache: cache.Config{Name: "rand3", Structure: cache.FullAssoc, LineBytes: 64, SizeBytes: randSize}},
		},
		Placements: map[string]rt.Placement{
			"edges": {Kind: rt.PlaceSection, Section: 0},
			"nodes": {Kind: rt.PlaceSection, Section: 1},
			"rand3": {Kind: rt.PlaceSection, Section: 2},
		},
	}
	return runGraphConfig(w, rcfg)
}

// fig12: application performance across partitions plus the ILP's pick.
func fig12(scale Scale) (*Figure, error) {
	cfg := thirdGraphCfg(scale)
	w0 := graphtraverse.New(cfg)
	budget := w0.FullMemoryBytes() / 3
	native, err := harness.Run(harness.Native, w0, harness.Options{})
	if err != nil {
		return nil, err
	}
	// Edge section fixed small; sweep the node/rand3 split.
	edgeSize := int64(16 * 2048)
	avail := budget - edgeSize
	splits := []float64{0.2, 0.35, 0.5, 0.65, 0.8}
	if scale == Quick {
		splits = []float64{0.25, 0.5, 0.75}
	}
	s := Series{Name: "manual-partition"}
	type sample struct {
		split          float64
		nodeOv, randOv float64
	}
	var samples []sample
	for _, split := range splits {
		w := graphtraverse.New(cfg)
		nodeSize := int64(float64(avail) * split)
		r, total, err := runGraphThree(w, budget, edgeSize, nodeSize, avail-nodeSize)
		if err != nil {
			return nil, err
		}
		s.X = append(s.X, split)
		s.Y = append(s.Y, relPerf(native.Time, total))
		samples = append(samples, sample{split: split, nodeOv: sectionOverhead(r, 1, total), randOv: sectionOverhead(r, 2, total)})
	}
	// The ILP's choice from the sampled curves (§4.3).
	prob := solver.Problem{Budget: avail}
	nodeSec := solver.Section{Name: "nodes", Start: 0, End: 1}
	randSec := solver.Section{Name: "rand3", Start: 0, End: 1}
	for _, sm := range samples {
		nodeSec.Candidates = append(nodeSec.Candidates, solver.Candidate{
			SizeBytes: int64(float64(avail) * sm.split), Overhead: sm.nodeOv})
		randSec.Candidates = append(randSec.Candidates, solver.Candidate{
			SizeBytes: int64(float64(avail) * (1 - sm.split)), Overhead: sm.randOv})
	}
	prob.Sections = []solver.Section{nodeSec, randSec}
	fig := &Figure{XLabel: "node-section share of non-edge memory", YLabel: "relative performance (native=1)", Series: []Series{s}}
	if assignment, _, err := solver.Solve(prob); err == nil {
		fig.Notes = append(fig.Notes, fmt.Sprintf("ILP chose nodes=%d bytes, rand3=%d bytes of %d available",
			assignment["nodes"], assignment["rand3"], avail))
	} else {
		fig.Notes = append(fig.Notes, "ILP: "+err.Error())
	}
	best := 0
	for i := range s.Y {
		if s.Y[i] > s.Y[best] {
			best = i
		}
	}
	fig.Notes = append(fig.Notes, fmt.Sprintf("best manual split: %.2f", s.X[best]))
	return fig, nil
}

// fig15: prefetching and eviction hints, against Leap.
func fig15(scale Scale) (*Figure, error) {
	cfg := graphCfg(scale)
	w0 := graphtraverse.New(cfg)
	native, err := harness.Run(harness.Native, w0, harness.Options{})
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		opts planner.Options
	}{
		{"mira-no-pf-no-hints", planner.Options{Techniques: planner.TechniqueMask{NoPrefetch: true, NoEvictHints: true}}},
		{"mira+prefetch", planner.Options{Techniques: planner.TechniqueMask{NoEvictHints: true}}},
		{"mira+pf+hints", planner.Options{}},
	}
	fig := &Figure{XLabel: "local memory fraction", YLabel: "relative performance (native=1)"}
	for _, v := range variants {
		s := Series{Name: v.name}
		for _, frac := range fractions(scale) {
			w := graphtraverse.New(cfg)
			opts := v.opts
			opts.LocalBudget = int64(float64(w.FullMemoryBytes()) * frac)
			opts.MaxIterations = 3
			res, err := planner.Plan(w, opts)
			if err != nil {
				return nil, err
			}
			s.X = append(s.X, frac)
			s.Y = append(s.Y, relPerf(native.Time, res.FinalTime))
		}
		fig.Series = append(fig.Series, s)
	}
	leap := Series{Name: "leap"}
	for _, frac := range fractions(scale) {
		w := graphtraverse.New(cfg)
		res, err := harness.Run(harness.Leap, w, harness.Options{Budget: int64(float64(w.FullMemoryBytes()) * frac)})
		if err != nil {
			return nil, err
		}
		leap.X = append(leap.X, frac)
		leap.Y = append(leap.Y, relPerf(native.Time, res.Time))
	}
	fig.Series = append(fig.Series, leap)
	fig.Notes = append(fig.Notes, "paper: program-guided prefetch beats Leap's majority-history prefetch on the interleaved pattern")
	return fig, nil
}

// fig22: selective transmission on the wide-struct node array.
func fig22(scale Scale) (*Figure, error) {
	cfg := graphCfg(scale)
	// Wide nodes: 4 KB records of which the traversal touches only the
	// 8 B counter. Pulling the whole line one-sided needs two network
	// chunks (past the 2 KB knee); the two-sided gather moves 8 bytes —
	// this is the regime where §4.5's selective transmission pays, and
	// the planner's cost model picks it automatically.
	cfg.NodeWidth = 4096
	cfg.Edges /= 4 // keep the footprint comparable despite wider nodes
	w0 := graphtraverse.New(cfg)
	native, err := harness.Run(harness.Native, w0, harness.Options{})
	if err != nil {
		return nil, err
	}
	fig := &Figure{XLabel: "local memory fraction", YLabel: "relative performance (native=1)"}
	variants := []struct {
		name string
		mask planner.TechniqueMask
	}{
		{"mira+selective", planner.TechniqueMask{}},
		{"mira-no-selective", planner.TechniqueMask{NoSelective: true}},
	}
	for _, v := range variants {
		s := Series{Name: v.name}
		for _, frac := range fractions(scale) {
			w := graphtraverse.New(cfg)
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
	fig.Notes = append(fig.Notes,
		"the node array holds 4KB records of which the traversal touches 8B; selective transmission gathers only the counter field two-sided",
		"the paper's figure 22 text is truncated in our source; §4.5's selective transmission is the remaining unplotted technique (see DESIGN.md)")
	return fig, nil
}
