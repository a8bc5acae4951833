// Package mira is a Go implementation of Mira, the program-behavior-guided
// far-memory system of Guo, He, and Zhang (SOSP 2023). It reproduces the
// paper's full pipeline:
//
//   - programs are expressed in a small IR (see NewProgram) — the stand-in
//     for the paper's MLIR remotable/rmem dialects;
//   - static analyses classify access patterns, lifetimes, and batching
//     opportunities; run-time profiling picks the scopes worth optimizing;
//   - the planner iteratively derives cache-section configurations
//     (structure, line size, sizes via sampling + ILP, communication
//     method) and compiles the program against them, rolling back
//     regressions;
//   - the runtime executes over a simulated far-memory node with a
//     calibrated RDMA-like cost model, moving real bytes so results are
//     verifiable; and
//   - baselines (FastSwap, Leap, AIFM) run the same programs for
//     comparison, and a figure harness regenerates every experiment in the
//     paper's evaluation.
//
// Quick start:
//
//	w := mira.NewGraphWorkload(mira.GraphConfig{})
//	res, err := mira.Plan(w, mira.PlanOptions{LocalBudget: w.FullMemoryBytes() / 4})
//	// res.BaselineTime is the generic-swap time; res.FinalTime the
//	// optimized compilation's.
//
// See examples/ for complete programs and cmd/ for the CLI tools.
package mira

import (
	"mira/internal/apps/arraysum"
	"mira/internal/apps/dataframe"
	"mira/internal/apps/distagg"
	"mira/internal/apps/gpt2"
	"mira/internal/apps/graphtraverse"
	"mira/internal/apps/mcf"
	"mira/internal/apps/seqscan"
	"mira/internal/apps/stridescan"
	"mira/internal/cluster"
	"mira/internal/exec"
	"mira/internal/faults"
	"mira/internal/figures"
	"mira/internal/harness"
	"mira/internal/ir"
	"mira/internal/mtrun"
	"mira/internal/planner"
	"mira/internal/prefetch"
	"mira/internal/serve"
	"mira/internal/sim"
	"mira/internal/trace"
	"mira/internal/transport"
	"mira/internal/workload"
)

// Workload is a benchmark application: a program plus its data and oracle.
type Workload = workload.Workload

// PlanOptions configures the iterative optimization flow (§3 of the paper).
type PlanOptions = planner.Options

// PlanResult is the planning outcome: baseline vs final time, the accepted
// configuration and compiled program, and per-iteration records.
type PlanResult = planner.Result

// TechniqueMask selectively disables Mira optimizations (used by the
// ablation figures).
type TechniqueMask = planner.TechniqueMask

// Plan runs Mira's full iterative profile-analyze-configure-compile flow.
func Plan(w Workload, opts PlanOptions) (*PlanResult, error) {
	return planner.Plan(w, opts)
}

// System identifies one of the far-memory systems in the evaluation.
type System = harness.System

// The comparable systems.
const (
	SystemNative   = harness.Native
	SystemMira     = harness.Mira
	SystemMiraSwap = harness.MiraSwap
	SystemFastSwap = harness.FastSwap
	SystemLeap     = harness.Leap
	SystemAIFM     = harness.AIFM
)

// RunOptions configures a single system run.
type RunOptions = harness.Options

// Tracer collects deterministic trace events and metrics from a run (set
// RunOptions.Trace). Write the results with its WriteTrace (Chrome
// trace-event JSON, loadable in chrome://tracing or Perfetto) and
// Registry().WriteJSON (metrics) methods.
type Tracer = trace.Tracer

// NewTracer returns an empty tracer ready to attach to a run.
func NewTracer() *Tracer { return trace.New() }

// RunResult is one run's outcome.
type RunResult = harness.Result

// Run executes w on one system at the given options.
func Run(sys System, w Workload, opts RunOptions) (RunResult, error) {
	return harness.Run(sys, w, opts)
}

// Prefetcher zoo (set RunOptions.Prefetch, or use the race runners below,
// to replace a system's stock prefetching with a named policy).

// PrefetchSpec names a zoo prefetch policy and its depth knob.
type PrefetchSpec = prefetch.Spec

// PrefetchEfficacy carries a run's prefetch accounting: issued, useful,
// useless (fetched but evicted untouched), and dropped counts
// (RunResult.Prefetch).
type PrefetchEfficacy = prefetch.Efficacy

// PrefetchCompiled is the line plane's reference arm: the prefetch stream
// the planner compiled into the program, no runtime policy.
const PrefetchCompiled = prefetch.Compiled

// PrefetchPolicyNames lists the registered runtime policy families.
func PrefetchPolicyNames() []string { return prefetch.Names() }

// RunPagePrefetch races one policy on the page plane: the workload runs on
// a uniform swap configuration with the policy as its page prefetcher.
func RunPagePrefetch(w Workload, opts RunOptions, spec PrefetchSpec) (RunResult, error) {
	return harness.RunPagePolicy(w, opts, spec)
}

// RunLinePrefetchRace runs several line-plane policies against one shared
// accepted plan (the planner runs once, so cells differ only in policy).
func RunLinePrefetchRace(w Workload, opts RunOptions, specs []PrefetchSpec) ([]RunResult, error) {
	return harness.RunLinePolicies(w, opts, specs)
}

// Fault injection and transport resilience (set RunOptions.Faults /
// RunOptions.Resilience to exercise a run under failures).

// FaultConfig describes a deterministic fault scenario: a schedule of
// crash/partition windows plus seeded probabilistic per-operation faults.
type FaultConfig = faults.Config

// FaultEvent is one scheduled crash/restart/partition transition.
type FaultEvent = faults.Event

// Fault event kinds.
const (
	FaultCrash          = faults.Crash
	FaultRestart        = faults.Restart
	FaultPartitionStart = faults.PartitionStart
	FaultPartitionEnd   = faults.PartitionEnd
)

// ResiliencePolicy tunes the transport's retries, deadlines, and circuit
// breaker.
type ResiliencePolicy = transport.Policy

// RecoveryResiliencePolicy returns a policy able to ride out the named
// schedules' crash/partition windows on a run of the given length.
func RecoveryResiliencePolicy(horizon Duration) ResiliencePolicy {
	return transport.RecoveryPolicy(horizon)
}

// NetStats are the transport's resilience counters (RunResult.Net).
type NetStats = transport.Stats

// Multi-node pools (set RunOptions.Nodes / RunOptions.Replicas to shard far
// memory across a replicated pool of far nodes; a run without them is a
// one-node pool).

// ClusterOptions configures the sharded far-node pool directly (most
// callers just set RunOptions.Nodes and RunOptions.Replicas).
type ClusterOptions = cluster.Options

// ClusterNodeStats reports one far node's counters in a multi-node run
// (RunResult.Cluster, ordered by node ID).
type ClusterNodeStats = cluster.NodeStats

// TierConfig puts a simulated SSD capacity tier under each cluster node's
// DRAM (RunOptions.Tier): hot granules stay in DRAM, cold ones demote to
// flash and promote back on access, paying the tier's promotion latency.
type TierConfig = cluster.TierConfig

// TierStats reports one node's capacity-tier counters
// (ClusterNodeStats.Tier).
type TierStats = cluster.TierStats

// ClusterResiliencePolicy returns the per-node transport policy suited to a
// replicated pool: members fail fast and the pool's replicas are the retry —
// transport-internal persistence would only delay failover.
func ClusterResiliencePolicy() ResiliencePolicy { return transport.FailFastPolicy() }

// Duration is a span of virtual time in nanoseconds.
type Duration = sim.Duration

// NamedFaultSchedule builds one of the predefined fault scenarios, with
// crash/partition windows placed at fractions of horizon (pass 0 for the
// default horizon).
func NamedFaultSchedule(name string, seed uint64, horizon sim.Duration) (FaultConfig, error) {
	return faults.NamedScaled(name, seed, horizon)
}

// FaultScheduleNames lists the predefined fault scenarios.
func FaultScheduleNames() []string { return faults.Names() }

// Figure is a regenerated evaluation figure.
type Figure = figures.Figure

// FigureScale selects quick or full experiment sizing.
type FigureScale = figures.Scale

// Figure scales.
const (
	FigureQuick = figures.Quick
	FigureFull  = figures.Full
)

// FigureIDs lists the regenerable figures.
func FigureIDs() []string { return figures.IDs() }

// GenerateFigure regenerates one evaluation figure.
func GenerateFigure(id string, scale FigureScale) (*Figure, error) {
	return figures.Generate(id, scale)
}

// NewProgram starts building an IR program — the front-end applications use
// in place of the paper's C++/ONNX sources.
func NewProgram(name string) *ir.Builder { return ir.NewBuilder(name) }

// Adapt implements the paper's input adaptation (§3): it measures an
// existing compilation against a new input and, when performance degrades
// past tolerance (default 0.2), runs a fresh optimization round and keeps
// whichever compilation is faster. It returns the compilation to use and
// whether re-optimization was triggered.
func Adapt(prev *PlanResult, w Workload, opts PlanOptions, tolerance float64) (*PlanResult, bool, error) {
	return planner.Adapt(prev, w, opts, tolerance)
}

// Measure runs an existing compilation against a (possibly different)
// input and returns its execution time — the measurement half of Adapt.
func Measure(prev *PlanResult, w Workload, opts PlanOptions) (sim.Duration, error) {
	return planner.Measure(prev, w, opts)
}

// MTMode selects a multithreading strategy for the scaling drivers (§4.6).
type MTMode = mtrun.Mode

// The multithreading strategies.
const (
	// MTMiraPrivate gives each thread private cache sections.
	MTMiraPrivate = mtrun.MiraPrivate
	// MTMiraShared shares one conservative section set (Fig. 24's
	// "Mira-unopt").
	MTMiraShared = mtrun.MiraShared
	// MTFastSwapShared shares the swap pool behind the kernel fault lock.
	MTFastSwapShared = mtrun.FastSwapShared
	// MTAIFMShared shares the AIFM object cache.
	MTAIFMShared = mtrun.AIFMShared
)

// MTResult is one multithreaded scaling point.
type MTResult = mtrun.Result

// ReadOnlyScaling divides a fixed batch of read-only executions of w
// across threads and returns the fork-join completion time (Fig. 24). The
// threads interleave deterministically on the virtual-time scheduler: the
// runnable thread with the lowest (virtual time, id) executes each next
// memory operation, so contention is emergent and byte-reproducible.
func ReadOnlyScaling(mode MTMode, w Workload, budget int64, threads int) (MTResult, error) {
	return mtrun.ReadOnlyScaling(mode, w, budget, threads)
}

// ReadOnlyScalingTraced is ReadOnlyScaling with a tracer attached to every
// runtime in the thread group (nil disables tracing); per-tid cache
// counters (cache.hit{...,tid=N} etc.) land in the tracer's registry.
func ReadOnlyScalingTraced(mode MTMode, w Workload, budget int64, threads int, tr *Tracer) (MTResult, error) {
	return mtrun.ReadOnlyScalingTraced(mode, w, budget, threads, tr)
}

// SharedWriteFilter partitions a DataFrame filter across threads writing
// one shared result vector (Fig. 25).
func SharedWriteFilter(mode MTMode, cfg DataFrameConfig, budget int64, threads int) (MTResult, error) {
	return mtrun.SharedWriteFilter(mode, cfg, budget, threads)
}

// TenantSpec describes one tenant of a multi-tenant serving mix: its
// workload, arrival process, SLO, queue bound, link weight, and DRAM budget.
type TenantSpec = serve.TenantSpec

// ServeOptions configures a multi-tenant serving run: admission control,
// elastic reclaim, the chaos schedule, and the seed every derived stream
// (arrivals, placement, faults) splits from.
type ServeOptions = serve.Options

// ServeResult reports a serving run: elapsed virtual time, per-tenant
// outcomes, and elastic-reclaim leases.
type ServeResult = serve.Result

// TenantResult is one tenant's outcome: admitted/rejected counts and exact
// p50/p95/p99 latency percentiles over admitted requests.
type TenantResult = serve.TenantResult

// ArrivalProcess selects a tenant's open-loop arrival process.
type ArrivalProcess = serve.Process

// The arrival processes.
const (
	// ArrivalsPoisson draws exponential interarrivals at a fixed rate.
	ArrivalsPoisson = serve.Poisson
	// ArrivalsBursty alternates on/off phases of Burst× / 1/Burst× the
	// mean rate.
	ArrivalsBursty = serve.Bursty
)

// Serve runs a multi-tenant serving mix to completion on the deterministic
// scheduler: open-loop arrivals, per-request execution, weighted-fair link
// arbitration, admission control, and elastic reclaim. Identical seeds
// produce byte-identical traces, metrics, and far-memory contents, chaos
// schedule included.
func Serve(specs []TenantSpec, opts ServeOptions) (*ServeResult, error) {
	return serve.Run(specs, opts)
}

// DefaultTenantMix is the canonical three-tenant mix (read-only sum, two
// mutating scans) used by mira-serve, the benchmarks, and CI.
func DefaultTenantMix() []TenantSpec { return serve.DefaultTenantMix() }

// NativeTenantReplay executes a tenant's workload reps times on a
// fault-free one-node runtime and returns its far-object dumps — the
// integrity reference for chaos serving runs.
func NativeTenantReplay(spec TenantSpec, reps int) (map[string][]byte, error) {
	return serve.NativeReplay(spec, reps)
}

// Workload constructors for the paper's applications.

// GraphConfig sizes the Fig. 4 graph-traversal example.
type GraphConfig = graphtraverse.Config

// NewGraphWorkload builds the graph-traversal example.
func NewGraphWorkload(cfg GraphConfig) Workload { return graphtraverse.New(cfg) }

// MCFConfig sizes the MCF (SPEC 429.mcf-like) workload.
type MCFConfig = mcf.Config

// NewMCFWorkload builds the MCF workload.
func NewMCFWorkload(cfg MCFConfig) Workload { return mcf.New(cfg) }

// DataFrameConfig sizes the DataFrame analytics workload.
type DataFrameConfig = dataframe.Config

// NewDataFrameWorkload builds the DataFrame workload.
func NewDataFrameWorkload(cfg DataFrameConfig) Workload { return dataframe.New(cfg) }

// GPT2Config sizes the GPT-2 inference workload.
type GPT2Config = gpt2.Config

// NewGPT2Workload builds the GPT-2 inference workload.
func NewGPT2Workload(cfg GPT2Config) Workload { return gpt2.New(cfg) }

// ArraySumConfig sizes the array-sum microbenchmark.
type ArraySumConfig = arraysum.Config

// NewArraySumWorkload builds the array-sum microbenchmark.
func NewArraySumWorkload(cfg ArraySumConfig) Workload { return arraysum.New(cfg) }

// SeqScanConfig sizes the sequential read-modify-write scan microbenchmark.
type SeqScanConfig = seqscan.Config

// NewSeqScanWorkload builds the memory-bound sequential scan (the vectored
// remote I/O evaluation's primary workload).
func NewSeqScanWorkload(cfg SeqScanConfig) Workload { return seqscan.New(cfg) }

// StrideScanConfig sizes the strided read-modify-write scan microbenchmark.
type StrideScanConfig = stridescan.Config

// NewStrideScanWorkload builds the memory-bound strided scan.
func NewStrideScanWorkload(cfg StrideScanConfig) Workload { return stridescan.New(cfg) }

// DistAggConfig sizes the distributed-aggregation workload (Mode "agg"
// sums, Mode "filter" predicates and counts).
type DistAggConfig = distagg.Config

// NewDistAggWorkload builds the distributed-aggregation workload — the
// scatter-gather offload engine's showcase: offloaded, each node reduces
// the stripe ranges it owns and returns one scalar.
func NewDistAggWorkload(cfg DistAggConfig) Workload { return distagg.New(cfg) }

// IR construction surface: NewProgram returns the ir.Builder, and the
// expression constructors below are re-exported so custom programs can be
// written against the facade alone (see ExampleNewProgram).

// Expr is an IR expression node.
type Expr = ir.Expr

// Field describes one field of a structured object's element.
type Field = ir.Field

// TensorRef names a dense float64 region for the tensor intrinsics.
type TensorRef = ir.TensorRef

// C builds an integer constant.
func C(i int64) Expr { return ir.C(i) }

// F64 builds a float constant.
func F64(f float64) Expr { return ir.CF(f) }

// P references an entry-function parameter.
func P(name string) Expr { return ir.P(name) }

// R references a register by id (from FuncBuilder.Var/NewReg).
func R(id int) Expr { return ir.R(id) }

// F declares a field (name, byte offset, byte size).
func F(name string, offset, bytes int) Field { return ir.F(name, offset, bytes) }

// T names a tensor: obj[off:] viewed as rows x cols float64s.
func T(obj string, off Expr, rows, cols int64) TensorRef { return ir.T(obj, off, rows, cols) }

// Add builds a + b.
func Add(a, b Expr) Expr { return ir.Add(a, b) }

// Sub builds a - b.
func Sub(a, b Expr) Expr { return ir.Sub(a, b) }

// Mul builds a * b.
func Mul(a, b Expr) Expr { return ir.Mul(a, b) }

// Div builds a / b.
func Div(a, b Expr) Expr { return ir.Div(a, b) }

// Mod builds a % b.
func Mod(a, b Expr) Expr { return ir.Mod(a, b) }

// Lt builds a < b.
func Lt(a, b Expr) Expr { return ir.Lt(a, b) }

// Le builds a <= b.
func Le(a, b Expr) Expr { return ir.Le(a, b) }

// Gt builds a > b.
func Gt(a, b Expr) Expr { return ir.Gt(a, b) }

// Ge builds a >= b.
func Ge(a, b Expr) Expr { return ir.Ge(a, b) }

// Eq builds a == b.
func Eq(a, b Expr) Expr { return ir.Eq(a, b) }

// Min builds min(a, b).
func Min(a, b Expr) Expr { return ir.Min(a, b) }

// Max builds max(a, b).
func Max(a, b Expr) Expr { return ir.Max(a, b) }

// Program is a validated IR program.
type Program = ir.Program

// customWorkload wraps a hand-built program and its data.
type customWorkload struct {
	name   string
	prog   *Program
	data   map[string][]byte
	params map[string]exec.Value
}

// NewCustomWorkload wraps a program built with NewProgram and its initial
// object contents into a Workload the planner and harness can run. data
// maps object names to their initial bytes (objects absent from the map
// start zeroed); params binds the entry function's parameters (nil when it
// has none).
func NewCustomWorkload(prog *Program, data map[string][]byte, params map[string]exec.Value) Workload {
	return &customWorkload{name: prog.Name, prog: prog, data: data, params: params}
}

func (w *customWorkload) Name() string      { return w.name }
func (w *customWorkload) Program() *Program { return w.prog }
func (w *customWorkload) Params() map[string]exec.Value {
	return w.params
}

func (w *customWorkload) Init(t workload.ObjectIniter) error {
	for name, d := range w.data {
		if err := t.InitObject(name, d); err != nil {
			return err
		}
	}
	return nil
}

func (w *customWorkload) FullMemoryBytes() int64 {
	var full int64
	for _, o := range w.prog.Objects {
		if !o.Local {
			full += o.SizeBytes()
		}
	}
	return full
}

// Value is a runtime scalar for binding entry-function parameters.
type Value = exec.Value

// IntV builds an integer Value.
func IntV(i int64) Value { return exec.IntV(i) }

// FloatV builds a float Value.
func FloatV(f float64) Value { return exec.FloatV(f) }
