package main

import (
	"encoding/json"
	"fmt"
	"io"

	"mira/internal/mtrun"
)

// metricDecl declares one metric. BENCHMARK.json carries name, unit,
// direction and (end-to-end only) bound; the rest of the table — which
// clock, how it is measured, what it should move — lives here and in
// README.md, and bench_test.go keeps the two in step.
type metricDecl struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Clock is "sim" (virtual nanoseconds on sim.Clock: repeats exactly),
	// "host" (this process's wall clock: a median over repetitions) or
	// "count".
	Clock string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// How names the measurement: D boundary decorator, T the program's
	// tracer, S public stat getters, M host micro-timing.
	How string
	// Moves names the end-to-end metrics a per-layer metric predicts, and
	// On the workloads where it should (for "!name": should not) show.
	Moves []string
	On    []string
}

// endToEndMetrics are what a user of the system sees. Names are fixed:
// later issues cite them verbatim.
var endToEndMetrics = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Clock: "host", Bound: 0.25},
	{Name: "plan_wall_s", Unit: "s", Better: "lower", Clock: "host", Bound: 0.25},
	{Name: "run_wall_s", Unit: "s", Better: "lower", Clock: "host", Bound: 0.25},
	{Name: "host_alloc_mb", Unit: "MiB", Better: "lower", Clock: "host", Bound: 0.05},
	{Name: "sim_slowdown", Unit: "ratio", Better: "lower", Clock: "sim", Bound: 0.08},
	{Name: "wire_amplification", Unit: "ratio", Better: "lower", Clock: "sim", Bound: 0.05},
}

// mtMiraMode is the multithreaded mode that counts as a Mira cell in
// sim_slowdown, normalised by native time × the mode's fixed batch.
const (
	mtMiraMode = mtrun.MiraPrivate
	mtBatch    = mtrun.DefaultReps
)

var (
	all     = workloadOrder
	compute = []string{"compute_hit"}
	chase   = []string{"pointer_chase"}
	scan    = []string{"scan_rw"}
	scale   = []string{"scaleout_faults"}

	simSlow  = []string{"sim_slowdown"}
	wallBoth = []string{"run_wall_s", "plan_wall_s"}
	runWall  = []string{"run_wall_s"}
	planWall = []string{"plan_wall_s"}
	simWire  = []string{"sim_slowdown", "wire_amplification"}
)

// perLayerMetrics are the single-layer numbers of the traced pass. A layer
// is one of this repository's modules; the prefix of each name is the
// module.
var perLayerMetrics = []metricDecl{
	{Name: "exec.ops", Unit: "count", Better: "lower", Clock: "count", How: "D", Moves: wallBoth, On: all},
	{Name: "exec.host_self_ns_per_op", Unit: "ns", Better: "lower", Clock: "host", How: "D", Moves: wallBoth, On: []string{"compute_hit", "!pointer_chase"}},
	{Name: "exec.native_host_ns_per_op", Unit: "ns", Better: "lower", Clock: "host", How: "D", Moves: []string{"setup_s"}, On: all},
	{Name: "exec.sim_compute_share", Unit: "ratio", Better: "higher", Clock: "sim", How: "D", Moves: simSlow, On: []string{"compute_hit", "!pointer_chase"}},
	{Name: "rt.access.count", Unit: "count", Better: "lower", Clock: "count", How: "D", Moves: wallBoth, On: all},
	{Name: "rt.access.host_ns_per_op", Unit: "ns", Better: "lower", Clock: "host", How: "D", Moves: wallBoth, On: []string{"compute_hit", "pointer_chase"}},
	{Name: "rt.access.sim_ns_per_op", Unit: "ns", Better: "lower", Clock: "sim", How: "D", Moves: simSlow, On: []string{"pointer_chase", "compute_hit"}},
	{Name: "rt.hit_ratio", Unit: "ratio", Better: "higher", Clock: "sim", How: "S", Moves: simSlow, On: chase},
	{Name: "rt.miss.count", Unit: "count", Better: "lower", Clock: "count", How: "T", Moves: simSlow, On: []string{"pointer_chase", "!compute_hit"}},
	{Name: "rt.miss.sim_ns_p50", Unit: "ns", Better: "lower", Clock: "sim", How: "T", Moves: simSlow, On: chase},
	{Name: "rt.miss.sim_ns_p99", Unit: "ns", Better: "lower", Clock: "sim", How: "T", Moves: simSlow, On: chase},
	{Name: "rt.prefetch.count", Unit: "count", Better: "lower", Clock: "count", How: "D", Moves: []string{"run_wall_s", "sim_slowdown"}, On: scan},
	{Name: "rt.prefetch.host_ns_per_op", Unit: "ns", Better: "lower", Clock: "host", How: "D", Moves: runWall, On: scan},
	{Name: "rt.fence.sim_ns", Unit: "ns", Better: "lower", Clock: "sim", How: "D", Moves: simSlow, On: scan},
	{Name: "rt.flush.sim_ns", Unit: "ns", Better: "lower", Clock: "sim", How: "D", Moves: simSlow, On: scan},
	{Name: "rt.bulk.count", Unit: "count", Better: "lower", Clock: "count", How: "D", Moves: simSlow, On: compute},
	{Name: "rt.bulk.sim_ns", Unit: "ns", Better: "lower", Clock: "sim", How: "D", Moves: simSlow, On: compute},
	{Name: "rt.wbq.enqueued", Unit: "count", Better: "lower", Clock: "count", How: "S", Moves: simWire, On: scan},
	{Name: "rt.wbq.drains", Unit: "count", Better: "lower", Clock: "count", How: "S", Moves: simWire, On: scan},
	{Name: "rt.wbq.pieces_per_drain", Unit: "ratio", Better: "higher", Clock: "sim", How: "S", Moves: simWire, On: scan},
	{Name: "rt.wbq.delta_saved_share", Unit: "ratio", Better: "higher", Clock: "sim", How: "S", Moves: simWire, On: scan},
	{Name: "cache.hit", Unit: "count", Better: "higher", Clock: "count", How: "T", Moves: simSlow, On: chase},
	{Name: "cache.miss", Unit: "count", Better: "lower", Clock: "count", How: "T", Moves: simSlow, On: chase},
	{Name: "cache.evict", Unit: "count", Better: "lower", Clock: "count", How: "T", Moves: simSlow, On: chase},
	{Name: "cache.lookup_host_ns.direct", Unit: "ns", Better: "lower", Clock: "host", How: "M", Moves: wallBoth, On: compute},
	{Name: "cache.lookup_host_ns.setassoc", Unit: "ns", Better: "lower", Clock: "host", How: "M", Moves: wallBoth, On: compute},
	{Name: "cache.lookup_host_ns.fullassoc", Unit: "ns", Better: "lower", Clock: "host", How: "M", Moves: wallBoth, On: compute},
	{Name: "cache.reserve_host_ns.direct", Unit: "ns", Better: "lower", Clock: "host", How: "M", Moves: wallBoth, On: chase},
	{Name: "cache.reserve_host_ns.setassoc", Unit: "ns", Better: "lower", Clock: "host", How: "M", Moves: wallBoth, On: chase},
	{Name: "cache.reserve_host_ns.fullassoc", Unit: "ns", Better: "lower", Clock: "host", How: "M", Moves: wallBoth, On: chase},
	{Name: "swap.fault.major", Unit: "count", Better: "lower", Clock: "count", How: "T", Moves: simSlow, On: chase},
	{Name: "swap.fault.sim_ns_p50", Unit: "ns", Better: "lower", Clock: "sim", How: "T", Moves: simSlow, On: chase},
	{Name: "swap.evict", Unit: "count", Better: "lower", Clock: "count", How: "T", Moves: simSlow, On: chase},
	{Name: "swap.access_host_ns", Unit: "ns", Better: "lower", Clock: "host", How: "M", Moves: runWall, On: chase},
	{Name: "prefetch.issued", Unit: "count", Better: "lower", Clock: "count", How: "S", Moves: simWire, On: []string{"scan_rw", "pointer_chase"}},
	{Name: "prefetch.accuracy", Unit: "ratio", Better: "higher", Clock: "sim", How: "S", Moves: simWire, On: []string{"scan_rw", "pointer_chase"}},
	{Name: "prefetch.coverage", Unit: "ratio", Better: "higher", Clock: "sim", How: "S", Moves: simSlow, On: []string{"scan_rw", "pointer_chase"}},
	{Name: "prefetch.late_share", Unit: "ratio", Better: "lower", Clock: "sim", How: "S", Moves: simSlow, On: scan},
	{Name: "transport.messages", Unit: "count", Better: "lower", Clock: "count", How: "S", Moves: simWire, On: []string{"scan_rw", "pointer_chase", "!compute_hit"}},
	{Name: "transport.bytes_wire", Unit: "B", Better: "lower", Clock: "count", How: "S", Moves: simWire, On: []string{"scan_rw", "pointer_chase"}},
	{Name: "transport.bytes_effective", Unit: "B", Better: "lower", Clock: "count", How: "S", Moves: simWire, On: []string{"scan_rw", "pointer_chase"}},
	{Name: "transport.op_sim_ns_mean", Unit: "ns", Better: "lower", Clock: "sim", How: "T", Moves: simSlow, On: chase},
	{Name: "transport.retries", Unit: "count", Better: "lower", Clock: "count", How: "S", Moves: simSlow, On: []string{"scaleout_faults", "!compute_hit", "!pointer_chase", "!scan_rw"}},
	{Name: "transport.timeouts", Unit: "count", Better: "lower", Clock: "count", How: "S", Moves: simSlow, On: []string{"scaleout_faults", "!compute_hit", "!pointer_chase", "!scan_rw"}},
	{Name: "transport.breaker_trips", Unit: "count", Better: "lower", Clock: "count", How: "S", Moves: simSlow, On: []string{"scaleout_faults", "!compute_hit", "!pointer_chase", "!scan_rw"}},
	{Name: "transport.degraded_ops", Unit: "count", Better: "lower", Clock: "count", How: "S", Moves: simSlow, On: []string{"scaleout_faults", "!compute_hit", "!pointer_chase", "!scan_rw"}},
	{Name: "transport.read4k_host_ns", Unit: "ns", Better: "lower", Clock: "host", How: "M", Moves: wallBoth, On: []string{"pointer_chase", "scan_rw", "!compute_hit"}},
	{Name: "transport.gather16_host_ns", Unit: "ns", Better: "lower", Clock: "host", How: "M", Moves: wallBoth, On: []string{"pointer_chase", "scan_rw", "!compute_hit"}},
	{Name: "netmodel.acquire_host_ns", Unit: "ns", Better: "lower", Clock: "host", How: "M", Moves: runWall, On: scan},
	{Name: "netmodel.link_busy_share", Unit: "ratio", Better: "lower", Clock: "sim", How: "S", Moves: simSlow, On: []string{"scan_rw", "!compute_hit"}},
	{Name: "codec.ops", Unit: "count", Better: "higher", Clock: "count", How: "S", Moves: simWire, On: scan},
	{Name: "codec.wire_saved_share", Unit: "ratio", Better: "higher", Clock: "sim", How: "S", Moves: simWire, On: scan},
	{Name: "codec.encode_mb_s", Unit: "MB/s", Better: "higher", Clock: "host", How: "M", Moves: runWall, On: scan},
	{Name: "codec.decode_mb_s", Unit: "MB/s", Better: "higher", Clock: "host", How: "M", Moves: runWall, On: scan},
	{Name: "codec.diff_mb_s", Unit: "MB/s", Better: "higher", Clock: "host", How: "M", Moves: runWall, On: scan},
	{Name: "farmem.ops", Unit: "count", Better: "lower", Clock: "count", How: "D", Moves: runWall, On: chase},
	{Name: "farmem.bytes", Unit: "B", Better: "lower", Clock: "count", How: "D", Moves: simWire, On: chase},
	{Name: "farmem.host_ns_per_op", Unit: "ns", Better: "lower", Clock: "host", How: "D", Moves: runWall, On: chase},
	{Name: "farmem.far_cpu_sim_ns", Unit: "ns", Better: "lower", Clock: "sim", How: "D", Moves: simSlow, On: scale},
	{Name: "cluster.failovers", Unit: "count", Better: "lower", Clock: "count", How: "S", Moves: simSlow, On: []string{"scaleout_faults", "!compute_hit", "!pointer_chase", "!scan_rw"}},
	{Name: "cluster.resync_sim_ns", Unit: "ns", Better: "lower", Clock: "sim", How: "T", Moves: simSlow, On: scale},
	{Name: "cluster.node_bytes_imbalance", Unit: "ratio", Better: "lower", Clock: "sim", How: "S", Moves: simSlow, On: scale},
	{Name: "faults.injected", Unit: "count", Better: "higher", Clock: "count", How: "S", Moves: simSlow, On: scale},
	{Name: "offload.subs", Unit: "count", Better: "higher", Clock: "count", How: "T", Moves: simWire, On: scale},
	{Name: "offload.bytes", Unit: "B", Better: "lower", Clock: "count", How: "T", Moves: simWire, On: scale},
	{Name: "offload.exec_sim_ns", Unit: "ns", Better: "lower", Clock: "sim", How: "T", Moves: simSlow, On: scale},
	{Name: "offload.commit_sim_ns", Unit: "ns", Better: "lower", Clock: "sim", How: "T", Moves: simSlow, On: scale},
	{Name: "sim.handoff_host_ns", Unit: "ns", Better: "lower", Clock: "host", How: "M", Moves: runWall, On: scale},
	{Name: "mtrun.speedup_4t", Unit: "ratio", Better: "higher", Clock: "sim", How: "S", Moves: simSlow, On: scale},
	{Name: "mtrun.host_s", Unit: "s", Better: "lower", Clock: "host", How: "S", Moves: runWall, On: scale},
	{Name: "serve.p99_sim_us", Unit: "us", Better: "lower", Clock: "sim", How: "S", Moves: simSlow, On: scale},
	{Name: "serve.shed_share", Unit: "ratio", Better: "lower", Clock: "sim", How: "S", Moves: simSlow, On: scale},
	{Name: "serve.host_s", Unit: "s", Better: "lower", Clock: "host", How: "S", Moves: runWall, On: scale},
	{Name: "planner.iterations", Unit: "count", Better: "lower", Clock: "count", How: "S", Moves: []string{"plan_wall_s", "sim_slowdown"}, On: all},
	{Name: "planner.accepted", Unit: "count", Better: "higher", Clock: "count", How: "S", Moves: simSlow, On: all},
	{Name: "planner.sim_gain", Unit: "ratio", Better: "higher", Clock: "sim", How: "S", Moves: simSlow, On: all},
	{Name: "planner.run_equivalents", Unit: "ratio", Better: "lower", Clock: "host", How: "S", Moves: planWall, On: compute},
	{Name: "analysis.host_ms", Unit: "ms", Better: "lower", Clock: "host", How: "M", Moves: planWall, On: compute},
	{Name: "codegen.host_ms", Unit: "ms", Better: "lower", Clock: "host", How: "M", Moves: planWall, On: compute},
	{Name: "solver.ilp_host_us", Unit: "us", Better: "lower", Clock: "host", How: "M", Moves: planWall, On: compute},
	{Name: "baselines.fastswap_sim_ratio", Unit: "ratio", Better: "higher", Clock: "sim", How: "S", Moves: simSlow, On: []string{"pointer_chase", "scan_rw"}},
	{Name: "baselines.leap_sim_ratio", Unit: "ratio", Better: "higher", Clock: "sim", How: "S", Moves: simSlow, On: []string{"pointer_chase", "scan_rw"}},
	{Name: "baselines.aifm_sim_ratio", Unit: "ratio", Better: "higher", Clock: "sim", How: "S", Moves: simSlow, On: chase},
	{Name: "baselines.mcf10_fastswap_ratio", Unit: "ratio", Better: "higher", Clock: "sim", How: "S", Moves: simSlow, On: chase},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Clock: "host", How: "D", Moves: runWall, On: all},
	{Name: "trace.events", Unit: "count", Better: "lower", Clock: "count", How: "T", Moves: runWall, On: all},
	{Name: "harness.peak_heap_mb", Unit: "MiB", Better: "lower", Clock: "host", How: "S", Moves: []string{"host_alloc_mb"}, On: all},
	{Name: "harness.cpu_s", Unit: "s", Better: "lower", Clock: "host", How: "S", Moves: runWall, On: all},
	{Name: "harness.gc_cpu_share", Unit: "ratio", Better: "lower", Clock: "host", How: "S", Moves: []string{"host_alloc_mb"}, On: all},
}

// workloadWhy is the one-line reason each workload exists (BENCHMARK.json
// repeats it; README.md gives the long form).
var workloadWhy = map[string]string{
	"compute_hit":     "DataFrame and GPT-2: over 95% of accesses hit and the planner re-runs the program dozens of times, so host time is interpreter, hit path and planner; miss path and transport do almost nothing.",
	"pointer_chase":   "MCF at 25% and 10% memory and graph traversal: miss-latency-bound, so the rt miss path, cache reserve/evict, transport, netmodel and far node set both clocks; the interpreter's share is small.",
	"scan_rw":         "seqscan and stridescan (read-modify-write) and arraysum (read-only): bandwidth-bound, so link occupancy, batching, the write-back queue, delta patches and codecs decide sim time and wire bytes.",
	"scaleout_faults": "4-node R=2 pool under crash-wipe, scatter-gather offload, 4-thread scaling and chaos serving: driver- and far-side-bound (scheduler, failover and re-sync, retry/breaker, offload, mtrun, serve).",
}

// printDeclared lists the declared workloads and metrics.
func printDeclared(w io.Writer) {
	for _, name := range workloadOrder {
		fmt.Fprintf(w, "workload %s: %s\n", name, workloadWhy[name])
		for _, c := range workloadCells[name] {
			fmt.Fprintf(w, "  cell %s\n", c.id)
		}
	}
	for _, d := range endToEndMetrics {
		fmt.Fprintf(w, "end_to_end %s unit=%s better=%s clock=%s bound=%g\n", d.Name, d.Unit, d.Better, d.Clock, d.Bound)
	}
	for _, d := range perLayerMetrics {
		fmt.Fprintf(w, "per_layer %s unit=%s better=%s clock=%s how=%s moves=%v on=%v\n", d.Name, d.Unit, d.Better, d.Clock, d.How, d.Moves, d.On)
	}
}

// runSeconds is how long one driver run measures (BENCHMARK.json's
// run_seconds): long enough for 7–13 repetitions of every workload.
const runSeconds = 25

// writeContract prints BENCHMARK.json from the tables above, so the file
// at the repository root is generated, never edited:
//
//	go run ./benchmark -contract > BENCHMARK.json
func writeContract(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	out := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, name := range workloadOrder {
		out.Workloads = append(out.Workloads, wl{name, workloadWhy[name]})
	}
	for _, d := range endToEndMetrics {
		out.EndToEnd = append(out.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayerMetrics {
		out.PerLayer = append(out.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
