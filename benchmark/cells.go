package main

import (
	"fmt"

	"mira/internal/apps/arraysum"
	"mira/internal/apps/dataframe"
	"mira/internal/apps/distagg"
	"mira/internal/apps/gpt2"
	"mira/internal/apps/graphtraverse"
	"mira/internal/apps/mcf"
	"mira/internal/apps/seqscan"
	"mira/internal/apps/stridescan"
	"mira/internal/harness"
	"mira/internal/mtrun"
	"mira/internal/sim"
	"mira/internal/workload"
)

// cellKind selects how a cell is driven.
type cellKind int

const (
	// kindMira plans with planner.Plan (timed as plan_wall_s) and then
	// drives the accepted plan itself (timed as run_wall_s).
	kindMira cellKind = iota
	// kindBaseline is one harness.Run of a comparison system.
	kindBaseline
	// kindPagePolicy is harness.RunPagePolicy: the page plane with a zoo
	// prefetch policy.
	kindPagePolicy
	// kindMT is mtrun.ReadOnlyScaling at 1 and 4 threads.
	kindMT
	// kindServe is serve.Run over the default tenant mix.
	kindServe
)

// clusterShape is the far-node pool a cell runs over (zero: one far node).
type clusterShape struct {
	nodes, replicas int
	stripe          uint64
}

// cell is one (program × system × options) point of a workload.
type cell struct {
	id   string // "<app>/<system>[+option]", unique within a workload
	app  string // key into the workload's programs
	kind cellKind

	system   harness.System // kindBaseline
	memFrac  float64        // local memory ÷ FullMemoryBytes (0 = 0.25)
	compress string         // kindMira: planner.Options.Compress
	offload  string         // kindMira: planner.Options.Offload
	cluster  clusterShape
	faults   string     // named fault schedule injected into the run
	policy   string     // kindPagePolicy: prefetch policy name
	mtMode   mtrun.Mode // kindMT
	// mcf10 marks the MCF 10 % cells: their comparison ratio is reported as
	// baselines.mcf10_fastswap_ratio, not folded into *_sim_ratio.
	mcf10 bool
}

func (c cell) frac() float64 {
	if c.memFrac == 0 {
		return 0.25
	}
	return c.memFrac
}

// sizes freezes every program size a workload uses. The full sizes are the
// ones BENCHMARK.json's numbers are measured at; the smoke sizes exist for
// bench_test.go and ci.sh and run each workload in well under a second.
type sizes struct {
	dfRows, dfQueries    int64
	gptLayers            int
	mcfArcs, mcfNodes    int64
	mcfIters, mcfWalk    int64
	graphEdges, graphNod int64
	mtEdges, mtNodes     int64 // the multithreaded cells' smaller graph
	seqN, strideN, sumN  int64
	distN                int64
	serveRequestsDiv     int // divides the default mix's request counts
}

var fullSizes = sizes{
	dfRows: 1 << 14, dfQueries: 1,
	gptLayers: 4,
	mcfArcs:   2048, mcfNodes: 512, mcfIters: 3, mcfWalk: 64,
	graphEdges: 8192, graphNod: 2048,
	mtEdges: 1024, mtNodes: 256,
	seqN: 1 << 15, strideN: 1 << 14, sumN: 1 << 17,
	distN:            1 << 15,
	serveRequestsDiv: 1,
}

var smokeSizes = sizes{
	dfRows: 1 << 8, dfQueries: 1,
	gptLayers: 1,
	mcfArcs:   256, mcfNodes: 64, mcfIters: 1, mcfWalk: 16,
	graphEdges: 512, graphNod: 128,
	mtEdges: 128, mtNodes: 32,
	seqN: 1 << 10, strideN: 1 << 10, sumN: 1 << 11,
	distN:            1 << 11,
	serveRequestsDiv: 8,
}

// appSeed derives one program's data seed from the benchmark seed. Apps
// fold the seed into signed arithmetic, so keep it positive and non-zero
// (zero means "default config" to some constructors).
func appSeed(seed uint64, app string) uint64 {
	return sim.SplitSeed(seed, "app/"+app)&0x3fffffff | 1
}

// buildProgram constructs one of the workload programs at the given sizes.
func buildProgram(app string, sz sizes, seed uint64) (workload.Workload, error) {
	s := appSeed(seed, app)
	switch app {
	case "dataframe":
		return dataframe.New(dataframe.Config{Rows: sz.dfRows, Queries: sz.dfQueries, Seed: s}), nil
	case "gpt2":
		cfg := gpt2.DefaultConfig()
		cfg.Layers, cfg.Seed = sz.gptLayers, s
		return gpt2.New(cfg), nil
	case "mcf":
		return mcf.New(mcf.Config{Arcs: sz.mcfArcs, Nodes: sz.mcfNodes,
			Iterations: sz.mcfIters, WalkLen: sz.mcfWalk, Seed: s}), nil
	case "graph":
		return graphtraverse.New(graphtraverse.Config{Edges: sz.graphEdges,
			Nodes: sz.graphNod, Passes: 1, Seed: s}), nil
	case "graph-mt":
		return graphtraverse.New(graphtraverse.Config{Edges: sz.mtEdges,
			Nodes: sz.mtNodes, Passes: 1, Seed: s}), nil
	case "seqscan":
		return seqscan.New(seqscan.Config{N: sz.seqN, Seed: s}), nil
	case "stridescan":
		return stridescan.New(stridescan.Config{N: sz.strideN, Seed: s}), nil
	case "arraysum":
		return arraysum.New(arraysum.Config{N: sz.sumN, Seed: s}), nil
	case "distagg":
		return distagg.New(distagg.Config{N: sz.distN, K: 3, Seed: s, Mode: "agg"}), nil
	case "distfilter":
		return distagg.New(distagg.Config{N: sz.distN, K: 3, Seed: s, Mode: "filter"}), nil
	}
	return nil, fmt.Errorf("benchmark: unknown program %q", app)
}

// pool4 is the scale-out workload's far-node pool: 4 nodes, every range on
// 2 of them, 64 KiB stripes.
var pool4 = clusterShape{nodes: 4, replicas: 2, stripe: 64 << 10}

// workloadCells is the fixed cell list of each workload. Order is run
// order; ids are what the trace file and per-cell output are keyed by.
var workloadCells = map[string][]cell{
	"compute_hit": {
		{id: "dataframe/mira", app: "dataframe", kind: kindMira},
		{id: "dataframe/fastswap", app: "dataframe", kind: kindBaseline, system: harness.FastSwap},
		// GPT-2 runs at 35 %: between 22 % and 26 % the accepted Mira plan
		// fails the native oracle at the parent commit (see README.md,
		// "Found while sizing"), and a workload may not contain a failing
		// operation.
		{id: "gpt2@35/mira", app: "gpt2", kind: kindMira, memFrac: 0.35},
		{id: "gpt2@35/fastswap", app: "gpt2", kind: kindBaseline, system: harness.FastSwap, memFrac: 0.35},
	},
	"pointer_chase": {
		{id: "mcf/mira", app: "mcf", kind: kindMira},
		{id: "mcf/fastswap", app: "mcf", kind: kindBaseline, system: harness.FastSwap},
		{id: "mcf/leap", app: "mcf", kind: kindBaseline, system: harness.Leap},
		{id: "mcf/aifm", app: "mcf", kind: kindBaseline, system: harness.AIFM},
		{id: "mcf@10/mira", app: "mcf", kind: kindMira, memFrac: 0.10, mcf10: true},
		{id: "mcf@10/fastswap", app: "mcf", kind: kindBaseline, system: harness.FastSwap, memFrac: 0.10, mcf10: true},
		{id: "graph/mira", app: "graph", kind: kindMira},
		{id: "graph/fastswap", app: "graph", kind: kindBaseline, system: harness.FastSwap},
		{id: "graph/leap", app: "graph", kind: kindBaseline, system: harness.Leap},
		{id: "graph/aifm", app: "graph", kind: kindBaseline, system: harness.AIFM},
		{id: "graph/page+history", app: "graph", kind: kindPagePolicy, policy: "history"},
	},
	"scan_rw": {
		{id: "seqscan/mira", app: "seqscan", kind: kindMira},
		{id: "seqscan/mira+compress", app: "seqscan", kind: kindMira, compress: "auto"},
		{id: "seqscan/leap", app: "seqscan", kind: kindBaseline, system: harness.Leap},
		{id: "seqscan/fastswap", app: "seqscan", kind: kindBaseline, system: harness.FastSwap},
		{id: "stridescan/mira", app: "stridescan", kind: kindMira},
		{id: "stridescan/leap", app: "stridescan", kind: kindBaseline, system: harness.Leap},
		{id: "stridescan/fastswap", app: "stridescan", kind: kindBaseline, system: harness.FastSwap},
		{id: "arraysum/mira", app: "arraysum", kind: kindMira},
		{id: "arraysum/leap", app: "arraysum", kind: kindBaseline, system: harness.Leap},
		{id: "arraysum/fastswap", app: "arraysum", kind: kindBaseline, system: harness.FastSwap},
	},
	"scaleout_faults": {
		{id: "seqscan/mira+crash-wipe", app: "seqscan", kind: kindMira, cluster: pool4, faults: "crash-wipe"},
		{id: "seqscan/fastswap+crash-wipe", app: "seqscan", kind: kindBaseline, system: harness.FastSwap, cluster: pool4, faults: "crash-wipe"},
		{id: "distagg/mira+offload", app: "distagg", kind: kindMira, cluster: pool4, offload: "auto"},
		{id: "distfilter/mira+offload", app: "distfilter", kind: kindMira, cluster: pool4, offload: "auto"},
		{id: "graph/mt-mira-private", app: "graph-mt", kind: kindMT, mtMode: mtrun.MiraPrivate},
		{id: "graph/mt-fastswap-shared", app: "graph-mt", kind: kindMT, mtMode: mtrun.FastSwapShared},
		{id: "tenants/serve+chaos", kind: kindServe, faults: "chaos"},
	},
}

// workloadOrder is the declared order of the four workloads.
var workloadOrder = []string{"compute_hit", "pointer_chase", "scan_rw", "scaleout_faults"}

// programsOf lists the distinct programs a workload's cells run, in first-
// use order.
func programsOf(cells []cell) []string {
	var out []string
	seen := map[string]bool{}
	for _, c := range cells {
		if c.app != "" && !seen[c.app] {
			seen[c.app] = true
			out = append(out, c.app)
		}
	}
	return out
}
