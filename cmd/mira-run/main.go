// Command mira-run executes one of the paper's applications on one
// far-memory system at a chosen local-memory fraction and reports the
// simulated execution time (and verification result).
//
// Usage:
//
//	mira-run -app graph -system mira -mem 0.25
//	mira-run -app mcf -system fastswap -mem 0.5
//	mira-run -app graph -system fastswap -mem 0.25 -faults crash
//	mira-run -app graph -system fastswap -mem 0.25 -nodes 4 -replicas 2
//	mira-run -app gpt2 -system mira -mem 1.0 -threads 4
//
// With -threads N, a fixed read-only batch is divided across N simulated
// threads interleaved on the deterministic virtual-time scheduler (§4.6,
// Fig. 24). The default shares one conservative section set across threads
// (the paper's Mira-unopt); -private-sections gives each thread its own
// budget/N sections. Identical invocations produce byte-identical -trace
// output.
//
// With -faults, the run first executes fault-free to measure its length,
// then re-executes under the named fault schedule (crash/partition windows
// scaled to land mid-run) and reports the resilience counters.
//
// With -nodes, far memory is sharded across N far nodes behind a
// replicated pool; per-node read/write/failover counters are reported.
// Combining -nodes with -faults injects the schedule into one node's fault
// domain: with -replicas 2 even crash-wipe recovers via replica failover.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"mira"
)

// writeFile streams write's output into path, creating or truncating it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func buildWorkload(app string) (mira.Workload, error) {
	switch app {
	case "graph":
		return mira.NewGraphWorkload(mira.GraphConfig{}), nil
	case "mcf":
		return mira.NewMCFWorkload(mira.MCFConfig{}), nil
	case "dataframe":
		return mira.NewDataFrameWorkload(mira.DataFrameConfig{}), nil
	case "gpt2":
		return mira.NewGPT2Workload(mira.GPT2Config{}), nil
	case "arraysum":
		return mira.NewArraySumWorkload(mira.ArraySumConfig{}), nil
	case "seqscan":
		return mira.NewSeqScanWorkload(mira.SeqScanConfig{}), nil
	case "stridescan":
		return mira.NewStrideScanWorkload(mira.StrideScanConfig{}), nil
	case "distagg":
		return mira.NewDistAggWorkload(mira.DistAggConfig{}), nil
	case "distfilter":
		return mira.NewDistAggWorkload(mira.DistAggConfig{Mode: "filter"}), nil
	default:
		return nil, fmt.Errorf("unknown app %q (graph, mcf, dataframe, gpt2, arraysum, seqscan, stridescan, distagg, distfilter)", app)
	}
}

// runMultithreaded drives the Fig. 24 read-only scaling experiment from
// the command line: a fixed batch of executions divided across interleaved
// simulated threads. Two runs with identical flags produce byte-identical
// traces — the interleaving is fully determined by (virtual time, tid).
func runMultithreaded(w mira.Workload, budget int64, app, system string, mem float64,
	threads int, privateSections, verify bool, traceOut, metricsOut string) {
	mode := mira.MTFastSwapShared // validateFlags admits mira and fastswap
	if system == "mira" {
		mode = mira.MTMiraShared
		if privateSections {
			mode = mira.MTMiraPrivate
		}
	}
	var tracer *mira.Tracer
	if traceOut != "" || metricsOut != "" {
		tracer = mira.NewTracer()
	}
	res, err := mira.ReadOnlyScalingTraced(mode, w, budget, threads, tracer)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mira-run: %v\n", err)
		os.Exit(1)
	}
	if traceOut != "" {
		if err := writeFile(traceOut, tracer.WriteTrace); err != nil {
			fmt.Fprintf(os.Stderr, "mira-run: trace: %v\n", err)
			os.Exit(1)
		}
	}
	if metricsOut != "" {
		if err := writeFile(metricsOut, tracer.Registry().WriteJSON); err != nil {
			fmt.Fprintf(os.Stderr, "mira-run: metrics: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Printf("%s on %s (%s) with %d threads at %.0f%% local memory (%d bytes): %v fork-join\n",
		app, system, res.Mode, threads, mem*100, budget, res.Time)
	for i, t := range res.PerThread {
		fmt.Printf("  thread %d: %v\n", i, t)
	}
	// After the trace is written: the oracle's flush is not part of the run.
	if verify {
		if err := res.Verify(); err != nil {
			fmt.Fprintf(os.Stderr, "mira-run: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("  output verified against the native oracle")
	}
}

func main() {
	app := flag.String("app", "graph", "workload: graph, mcf, dataframe, gpt2, arraysum, seqscan, stridescan, distagg, distfilter")
	system := flag.String("system", "mira", "system: native, mira, mira-swap, fastswap, leap, aifm")
	mem := flag.Float64("mem", 0.5, "local memory as a fraction of the workload's footprint")
	verify := flag.Bool("verify", true, "verify workload output against the native oracle")
	batch := flag.Bool("batch", true, "vectored remote I/O: doorbell-batched prefetch and async write-back (false = PR 2 data path)")
	compress := flag.String("compress", "off", "wire compression for mira/mira-swap: off, on (every section + swap), auto (planner measures per section)")
	offloadMode := flag.String("offload", "off", "scatter-gather offload for mira: off, on (offload every scatter-safe function), auto (planner races offload vs fetch per function, keeping only wins)")
	plane := flag.String("plane", "", "mira data-plane mode: page (swap only), line (cache sections only), hybrid (planner races both + a per-object split); empty = classic planning")
	tierDRAM := flag.Int64("tier-dram", 0, "with -nodes: per-node DRAM budget in bytes; the rest of each node's data lives on a simulated SSD tier (0 = no tier)")
	wbq := flag.Int("wbq", 0, "async write-back queue bound in lines (0 = default, negative = disabled)")
	aifmChunk := flag.Int64("aifm-chunk", 0, "AIFM remotable-object granularity in bytes (0 = per-element array library)")
	aifmMeta := flag.Int64("aifm-meta", 0, "AIFM per-object metadata bytes (0 = default)")
	faultsName := flag.String("faults", "", fmt.Sprintf("named fault schedule %v; empty = fault-free (crash-wipe loses the node's memory: without a replica to restore it from, the run fails with a read error; -nodes 2 -replicas 2 rides it out)", mira.FaultScheduleNames()))
	faultSeed := flag.Uint64("fault-seed", 1, "seed for the fault injector's probabilistic draws")
	nodes := flag.Int("nodes", 0, "shard far memory across this many far nodes and print the per-node cluster report (0 = one far node, no report)")
	replicas := flag.Int("replicas", 1, "with -nodes: replication factor R, every range lives on R nodes")
	stripe := flag.Int64("stripe", 64<<10, "cluster placement stripe in bytes")
	faultNode := flag.Int("fault-node", 0, "which cluster node receives the -faults schedule")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (load in chrome://tracing or Perfetto)")
	metricsOut := flag.String("metrics", "", "write the run's metrics registry as JSON to this file")
	prefetchPol := flag.String("prefetch", "", fmt.Sprintf("zoo prefetch policy replacing the system's stock prefetching: %s (systems: mira = line plane, mira-swap/fastswap/leap = page plane); empty = stock", prefetchHelp()))
	threads := flag.Int("threads", 1, "interleave this many simulated threads on the deterministic scheduler, dividing a fixed read-only batch (systems: mira, fastswap)")
	privateSections := flag.Bool("private-sections", false, "with -threads: give each thread private cache sections (default: one shared conservative section set, the paper's Mira-unopt)")
	flag.Parse()

	w, err := buildWorkload(*app)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mira-run: %v\n", err)
		os.Exit(2)
	}
	budget := int64(float64(w.FullMemoryBytes()) * *mem)
	rf := runFlags{
		System:    *system,
		Plane:     *plane,
		Compress:  *compress,
		Offload:   *offloadMode,
		Prefetch:  *prefetchPol,
		Threads:   *threads,
		Nodes:     *nodes,
		Replicas:  *replicas,
		FaultNode: *faultNode,
		TierDRAM:  *tierDRAM,
		Faults:    *faultsName,
		NoBatch:   !*batch,
		Set:       map[string]bool{},
	}
	flag.Visit(func(f *flag.Flag) { rf.Set[f.Name] = true })
	if err := validateFlags(rf); err != nil {
		fmt.Fprintf(os.Stderr, "mira-run: %v\n", err)
		os.Exit(2)
	}
	// An explicit -threads 1 still runs the multithreaded driver (a
	// one-thread group on the scheduler), so thread sweeps compare one
	// driver with itself; without the flag, 1 means the classic run path.
	if rf.threadsActive() {
		runMultithreaded(w, budget, *app, *system, *mem, *threads, *privateSections, *verify,
			*traceOut, *metricsOut)
		return
	}
	opts := mira.RunOptions{Budget: budget, Verify: *verify, NoBatching: !*batch}
	opts.Planner = mira.PlanOptions{Plane: *plane, Compress: *compress, Offload: *offloadMode,
		WritebackQueueLines: *wbq}
	if *prefetchPol != "" {
		opts.Prefetch = &mira.PrefetchSpec{Policy: *prefetchPol}
	}
	opts.AIFM.ChunkBytes = *aifmChunk
	opts.AIFM.MetaPerObject = *aifmMeta
	if *nodes > 0 {
		opts.Nodes = *nodes
		opts.Replicas = *replicas
		opts.FaultNode = *faultNode
		if *stripe > 0 {
			opts.StripeBytes = uint64(*stripe)
		}
		if *tierDRAM > 0 {
			opts.Tier = &mira.TierConfig{DRAMBytes: uint64(*tierDRAM)}
		}
	}
	if *faultsName != "" && *faultsName != "none" {
		// Dry run fault-free to learn the run length, so the schedule's
		// crash/partition windows land mid-run.
		dry, err := mira.Run(mira.System(*system), w, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mira-run: fault-free dry run: %v\n", err)
			os.Exit(1)
		}
		fc, err := mira.NamedFaultSchedule(*faultsName, *faultSeed, dry.Time)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mira-run: %v\n", err)
			os.Exit(2)
		}
		opts.Faults = &fc
		if *nodes > 0 {
			// Cluster members fail fast; the pool's replicas are the retry.
			pol := mira.ClusterResiliencePolicy()
			opts.Resilience = &pol
		} else {
			pol := mira.RecoveryResiliencePolicy(dry.Time)
			opts.Resilience = &pol
		}
	}
	var tracer *mira.Tracer
	if *traceOut != "" || *metricsOut != "" {
		// Attach the tracer to the final run only: the -faults dry run above
		// and the planner's internal sampling runs stay uninstrumented.
		tracer = mira.NewTracer()
		opts.Trace = tracer
	}
	res, err := mira.Run(mira.System(*system), w, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mira-run: %v\n", err)
		os.Exit(1)
	}
	if *traceOut != "" {
		if err := writeFile(*traceOut, tracer.WriteTrace); err != nil {
			fmt.Fprintf(os.Stderr, "mira-run: trace: %v\n", err)
			os.Exit(1)
		}
	}
	if *metricsOut != "" {
		if err := writeFile(*metricsOut, tracer.Registry().WriteJSON); err != nil {
			fmt.Fprintf(os.Stderr, "mira-run: metrics: %v\n", err)
			os.Exit(1)
		}
	}
	if res.Failed {
		fmt.Printf("%s on %s at %.0f%% memory: FAILED TO EXECUTE (%s)\n",
			*app, *system, *mem*100, res.FailReason)
		return
	}
	fmt.Printf("%s on %s at %.0f%% local memory (%d bytes): %v\n",
		*app, *system, *mem*100, budget, res.Time)
	if res.Messages > 0 {
		fmt.Printf("  transport: %d messages, %d bytes moved\n", res.Messages, res.BytesMoved)
	}
	if *compress != "off" && res.BytesEffective > 0 {
		saved := res.BytesEffective - res.BytesOnWire
		fmt.Printf("  wire (compress %s): %d bytes on wire, %d effective (codec saved %d, %.1f%%)\n",
			*compress, res.BytesOnWire, res.BytesEffective, saved,
			100*float64(saved)/float64(res.BytesEffective))
	}
	if res.PlanResult != nil {
		fmt.Printf("  planner: swap baseline %v -> optimized %v across %d iterations, %d sections (%d timed runs, %d repeats answered from the ledger)\n",
			res.PlanResult.BaselineTime, res.PlanResult.FinalTime,
			len(res.PlanResult.Iterations), len(res.PlanResult.Config.Sections),
			res.PlanResult.Runs, res.PlanResult.Reused)
		if off := res.PlanResult.Offloaded; len(off) > 0 {
			fmt.Printf("  offloaded (%s):", *offloadMode)
			for _, name := range off {
				fmt.Printf(" %s", name)
			}
			fmt.Println()
		}
		if *plane != "" { // mira-swap plans on the page plane too, unasked
			planes := res.PlanResult.Planes
			names := make([]string, 0, len(planes))
			for name := range planes {
				names = append(names, name)
			}
			sort.Strings(names)
			fmt.Printf("  planes (%s):", *plane)
			for _, name := range names {
				fmt.Printf(" %s=%s", name, planes[name])
			}
			fmt.Println()
		}
	}
	if opts.Prefetch != nil {
		pf := res.Prefetch
		fmt.Printf("  prefetch %s: %d issued, %d useful (%d late), %d useless, %d dropped; accuracy %.2f, coverage %.2f of %d demand misses\n",
			opts.Prefetch.Policy, pf.Issued, pf.Useful, pf.Late, pf.Useless, pf.Dropped,
			pf.Accuracy(), pf.Coverage(res.DemandMisses), res.DemandMisses)
	}
	if n := res.Net; opts.Faults != nil {
		fmt.Printf("  faults (%s, seed %d): %d retries, %d timeouts, %d corruptions, %d breaker trips, %d queued writebacks, %d degraded reads, %v degraded, %v backoff\n",
			*faultsName, *faultSeed, n.Retries, n.Timeouts, n.Corruptions, n.BreakerTrips,
			n.QueuedWritebacks, n.DegradedReads, n.DegradedTime, n.BackoffTime)
	}
	if *nodes > 0 {
		fmt.Printf("  cluster: %d nodes, R=%d, stripe %d bytes\n", *nodes, *replicas, *stripe)
		for _, ns := range res.Cluster {
			fmt.Printf("    node %d: %d reads (%d B), %d writes (%d B), %d failovers, %d repairs, %d resyncs (%d B), %d/%d B allocated",
				ns.Node, ns.Reads, ns.ReadBytes, ns.Writes, ns.WriteBytes,
				ns.Failovers, ns.Repairs, ns.Resyncs, ns.ResyncBytes,
				ns.AllocatedBytes, ns.CapacityBytes)
			if ns.Faults.Wipes > 0 || ns.Faults.DownRefusals > 0 {
				fmt.Printf(", %d wipes, %d down refusals", ns.Faults.Wipes, ns.Faults.DownRefusals)
			}
			if t := ns.Tier; t.Hits+t.Misses+t.Demotions > 0 {
				fmt.Printf(", tier: %d hits, %d misses, %d demotions, %d B DRAM / %d B flash",
					t.Hits, t.Misses, t.Demotions, t.ResidentBytes, t.SSDBytes)
			}
			fmt.Println()
		}
	}
	if *verify {
		fmt.Println("  output verified against the native oracle")
	}
}
