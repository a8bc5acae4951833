// Package harness runs one workload under one far-memory system at one
// local-memory budget — the inner loop of every figure in the paper's
// evaluation. Systems: native (full local memory; the normalization
// denominator of all figures), Mira (full planner), Mira's swap-only
// baseline, FastSwap, Leap, and AIFM.
package harness

import (
	"fmt"

	"mira/internal/baselines/aifm"
	"mira/internal/baselines/fastswap"
	"mira/internal/baselines/leap"
	"mira/internal/cluster"
	"mira/internal/faults"
	"mira/internal/planner"
	"mira/internal/prefetch"
	"mira/internal/rt"
	"mira/internal/session"
	"mira/internal/trace"
	"mira/internal/transport"
	"mira/internal/workload"
)

// System identifies a far-memory system.
type System string

// The systems the evaluation compares.
const (
	Native   System = "native"
	Mira     System = "mira"
	MiraSwap System = "mira-swap" // Mira's iteration-0 generic swap config
	FastSwap System = "fastswap"
	Leap     System = "leap"
	AIFM     System = "aifm"
)

// AllSystems lists the far-memory systems (excluding native).
var AllSystems = []System{Mira, FastSwap, Leap, AIFM}

// Options tunes a harness run.
type Options struct {
	// Budget is the local memory in bytes (ignored for Native).
	Budget int64
	// Planner customizes Mira's planning: the data-plane, compression and
	// offload modes and the technique mask all live here, and every Mira
	// driver plans with them (planOptions). The budget, tracer and pool
	// come from the fields below. The mask's NoBatching is the unbatched
	// data path of every system that batches: Mira's plans and the page
	// plane's prefetch gather (runConfig) alike.
	Planner planner.Options
	// Verify checks workload output after the run when the workload
	// implements workload.Verifier.
	Verify bool
	// AIFM customizes the AIFM baseline's library model (its budget and
	// pool come from Budget and the pool fields below).
	AIFM aifm.Options
	// Faults injects the deterministic fault schedule into node FaultNode's
	// transport (nil: fault-free). Native runs never see faults — they
	// are the golden reference the faulted runs are compared against.
	Faults *faults.Config
	// Resilience overrides every node transport's retry/deadline/breaker
	// policy.
	Resilience *transport.Policy
	// Nodes shards far memory across that many far nodes behind the
	// run's cluster.Pool (placement, replication, failover). Zero is one
	// node, as is the paper's testbed. Native runs hold everything local
	// and remain the golden reference either way.
	Nodes int
	// Replicas is the pool's replication factor R (default 1:
	// each placement range lives on R nodes, writes fan out to all of
	// them, reads fail over between them).
	Replicas int
	// FaultNode selects which pool node receives Options.Faults (clamped
	// to the node range). The other nodes stay clean — that asymmetry is
	// what makes replicated failover observable.
	FaultNode int
	// StripeBytes overrides the cluster placement granularity (0:
	// cluster.DefaultStripeBytes). Tests use small stripes so test-sized
	// heaps actually spread across nodes.
	StripeBytes uint64
	// Trace, when non-nil, records the run's events and metrics into the
	// deterministic tracing layer. For Mira it attaches to the timed
	// re-run of the accepted configuration (and to the planner's
	// iteration timeline), never to the planner's internal sampling runs.
	Trace *trace.Tracer
	// Prefetch, when non-nil, replaces the system's stock prefetching with
	// the named zoo policy: Mira runs it on the line plane (one instance
	// per cache section, via RunLinePolicy, planned with Planner); the swap
	// systems (mira-swap, fastswap, leap) run it on the page plane (via
	// RunPagePolicy, which plans nothing). Planner.Plane must stay empty:
	// the zoo policies pick their own plane.
	Prefetch *prefetch.Spec
	// Tier, when non-nil, puts a simulated SSD capacity tier under every
	// pool node's DRAM (hot granules in DRAM, cold ones demoted to flash
	// and promoted back on access).
	Tier *cluster.TierConfig
}

func (o Options) faultsEnabled() bool { return o.Faults != nil && o.Faults.Enabled() }

// clusterOpts translates the harness knobs into the run's pool: Nodes far
// nodes, one when Nodes is zero. withFaults moves Options.Faults onto the
// chosen node's fault domain (planning runs pass false: planning is offline
// and fault-free).
func (o Options) clusterOpts(withFaults bool) *cluster.Options {
	co := &cluster.Options{
		Nodes:       max(o.Nodes, 1),
		Replicas:    o.Replicas,
		Seed:        1,
		StripeBytes: o.StripeBytes,
		Tier:        o.Tier,
	}
	if o.Resilience != nil {
		pol := *o.Resilience
		co.Policy = &pol
	}
	if withFaults && o.faultsEnabled() {
		at := min(max(o.FaultNode, 0), co.Nodes-1)
		co.Faults = make([]*faults.Config, co.Nodes)
		fc := *o.Faults
		co.Faults[at] = &fc
	}
	return co
}

// runConfig puts the timed run's pool on cfg, with the fault schedule on
// its chosen node, and turns the page plane's batched prefetch gather off
// on the unbatched data path.
func (o Options) runConfig(cfg rt.Config) rt.Config {
	cfg.Cluster = o.clusterOpts(true)
	if o.Planner.Techniques.NoBatching {
		cfg.SwapCfg.BatchPrefetch = false
	}
	return cfg
}

// Result is one run's outcome.
type Result struct {
	System System
	// Stats is the timed run's counter block: Time, Net, Cluster, Messages
	// and the byte counts for every system, and — for every system on the
	// Mira runtime — Prefetch and DemandMisses.
	session.Stats
	// Failed marks systems that could not execute at this budget (AIFM
	// metadata exhaustion, Fig. 18) — plotted as absent in the paper.
	Failed bool
	// FailReason explains a failure.
	FailReason string
	// PlanResult carries the planner record for Mira runs.
	PlanResult *planner.Result
}

// Run executes w on sys.
func Run(sys System, w workload.Workload, opts Options) (Result, error) {
	if opts.Planner.Plane != "" {
		if sys != Mira {
			return Result{}, fmt.Errorf("harness: a plane mode selects Mira's data plane; %s has only one", sys)
		}
		if opts.Prefetch != nil {
			return Result{}, fmt.Errorf("harness: a plane mode and a prefetch policy are mutually exclusive (zoo policies pick their own plane)")
		}
	}
	if opts.Prefetch != nil {
		switch sys {
		case Mira:
			return RunLinePolicy(w, opts, *opts.Prefetch)
		case MiraSwap, FastSwap, Leap:
			return RunPagePolicy(w, opts, *opts.Prefetch)
		default:
			return Result{}, fmt.Errorf("harness: -prefetch is not supported for %s", sys)
		}
	}
	switch sys {
	case Native:
		return runNative(w, opts)
	case Mira, MiraSwap:
		return runMira(sys, w, opts)
	case FastSwap, Leap:
		return runSwapBaseline(sys, w, opts)
	case AIFM:
		return runAIFM(w, opts)
	default:
		return Result{}, fmt.Errorf("harness: unknown system %q", sys)
	}
}

// runSpec opens spec with the run's tracer attached, executes it once and
// finishes it. For Mira the spec's program must be the planner's transformed
// one — running the workload's original would silently drop the compiled-in
// prefetch and eviction instrumentation.
func runSpec(sys System, spec session.Spec, opts Options) (Result, error) {
	spec.Trace = opts.Trace
	s, err := session.Open(spec)
	if err != nil {
		return Result{}, err
	}
	defer s.Close()
	return finish(sys, s, opts)
}

func finish(sys System, s *session.Session, opts Options) (Result, error) {
	if _, err := s.Run(); err != nil {
		return Result{}, err
	}
	st, err := s.Finish(opts.Verify)
	if err != nil {
		return Result{}, fmt.Errorf("harness: %s: %w", sys, err)
	}
	return Result{System: sys, Stats: st}, nil
}

// runNative executes with every object in local memory: the figures'
// normalization denominator ("native execution on full local memory").
func runNative(w workload.Workload, opts Options) (Result, error) {
	return runSpec(Native, session.Spec{Workload: w, Config: session.Native(w.Program())}, opts)
}

// planOptions is the one translation from a run's options to the planner
// options every Mira driver plans with (runMira and RunLinePolicies):
// Planner, plus the budget, the tracer and the pool. Planning is offline
// and fault-free.
func (o Options) planOptions() planner.Options {
	popts := o.Planner
	popts.LocalBudget = o.Budget
	popts.Cluster = o.clusterOpts(false)
	popts.Trace = o.Trace
	return popts
}

// runMira plans (or, for MiraSwap, stops at iteration 0: the page plane is
// the swap baseline) and reports the accepted configuration's time.
func runMira(sys System, w workload.Workload, opts Options) (Result, error) {
	popts := opts.planOptions()
	if sys == MiraSwap {
		popts.Plane = "page"
	}
	res, err := planner.Plan(w, popts)
	if err != nil {
		return Result{}, err
	}
	// Re-run the accepted configuration for verification (the planner's
	// timing runs don't verify), to measure it under the fault schedule
	// (planning itself is always fault-free — an offline activity), or to
	// trace it (the planner's internal runs are not instrumented).
	if opts.Verify || opts.faultsEnabled() || opts.Trace != nil {
		return runAccepted(sys, w, opts, res, &programVariant{}, prefetch.Spec{Policy: prefetch.Compiled})
	}
	return Result{System: sys, Stats: session.Stats{Time: res.FinalTime}, PlanResult: res}, nil
}

func runSwapBaseline(sys System, w workload.Workload, opts Options) (Result, error) {
	var spec session.Spec
	var err error
	if sys == FastSwap {
		spec, err = fastswap.Spec(w, fastswap.Options{LocalBudget: opts.Budget})
	} else {
		spec, err = leap.Spec(w, leap.Options{LocalBudget: opts.Budget})
	}
	if err != nil {
		return Result{}, err
	}
	spec.Config = opts.runConfig(spec.Config)
	return runSpec(sys, spec, opts)
}

func runAIFM(w workload.Workload, opts Options) (Result, error) {
	aopts := opts.AIFM
	aopts.LocalBudget = opts.Budget
	aopts.Cluster = opts.clusterOpts(true)
	r, err := aifm.New(w, aopts)
	if err != nil {
		// AIFM's metadata-exhaustion failure is a *result* the paper
		// reports, not a harness error.
		return Result{System: AIFM, Failed: true, FailReason: err.Error()}, nil
	}
	s := session.Over(r, w, w.Program(), opts.Trace)
	defer s.Close()
	return finish(AIFM, s, opts)
}
