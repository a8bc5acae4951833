package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"mira"
	"mira/internal/baselines/fastswap"
	"mira/internal/cluster"
	"mira/internal/exec"
	"mira/internal/farmem"
	"mira/internal/faults"
	"mira/internal/harness"
	"mira/internal/mtrun"
	"mira/internal/planner"
	"mira/internal/prefetch"
	"mira/internal/rt"
	"mira/internal/serve"
	"mira/internal/sim"
	"mira/internal/trace"
	"mira/internal/workload"
)

// program is one workload program with its native oracle numbers (the
// sim_slowdown denominator, measured during set-up).
type program struct {
	name      string
	w         workload.Workload
	full      int64
	nativeSim sim.Duration
	// setupHost is the host time of building the program and of its
	// verified native run together; nativeHost of the run alone.
	setupHost, nativeHost time.Duration
	// nativeOps is the backend-operation count of the native run (traced
	// pass only).
	nativeOps int64
}

// bench is one workload instantiated at one seed.
type bench struct {
	name  string
	seed  uint64
	sz    sizes
	cells []cell
	progs map[string]*program
	// replays caches the serve cell's native tenant replays: they depend
	// only on (tenant, admitted count), which repeats across repetitions.
	replays map[string]map[string][]byte
}

func newBench(name string, seed uint64, sz sizes) (*bench, error) {
	cells, ok := workloadCells[name]
	if !ok {
		return nil, fmt.Errorf("benchmark: unknown workload %q (have %v)", name, workloadOrder)
	}
	return &bench{name: name, seed: seed, sz: sz, cells: cells,
		replays: map[string]map[string][]byte{}}, nil
}

// setup builds every program the workload's cells run and executes each on
// the native system with verification: the oracle every later run is
// checked against, and the denominator of sim_slowdown.
func (b *bench) setup() error {
	b.progs = map[string]*program{}
	for _, app := range programsOf(b.cells) {
		h0 := time.Now()
		w, err := buildProgram(app, b.sz, b.seed)
		if err != nil {
			return err
		}
		h1 := time.Now()
		res, err := harness.Run(harness.Native, w, harness.Options{Verify: true})
		if err != nil {
			return fmt.Errorf("benchmark: native %s: %w", app, err)
		}
		b.progs[app] = &program{name: app, w: w, full: w.FullMemoryBytes(),
			nativeSim: res.Time, setupHost: time.Since(h0), nativeHost: time.Since(h1)}
	}
	return nil
}

// cellOut is what one execution of a cell produced.
type cellOut struct {
	planHost, runHost time.Duration
	// sims holds every simulated-clock number of the cell, in a fixed
	// order; repetitions and the traced pass must reproduce it exactly.
	sims []int64
	// simNs is the cell's headline simulated time; wire and effective its
	// post- and pre-codec interconnect bytes.
	simNs, wire, effective, messages int64
	attempted, failed                int
	// outcome is a modelled result that is not a failure (AIFM's metadata
	// exhaustion).
	outcome string

	plan *planner.Result
	// mtT1 and serveRes carry the kind-specific results.
	mtT1     int64
	serveRes *serve.Result
	run      harness.Result
	traced   *tracedRun
}

func (o *cellOut) fail(id, op string, err error) {
	o.failed++
	fmt.Fprintf(os.Stderr, "benchmark: %s: %s failed: %v\n", id, op, err)
}

// clusterOpts builds the cell's fault-free far-node pool options (nil for a
// single far node): what planning runs against.
func (c cell) clusterOpts() *cluster.Options {
	if c.cluster.nodes == 0 {
		return nil
	}
	pol := mira.ClusterResiliencePolicy()
	return &cluster.Options{
		Nodes:       c.cluster.nodes,
		Replicas:    c.cluster.replicas,
		Seed:        1,
		StripeBytes: c.cluster.stripe,
		NodeCfg:     farmem.DefaultNodeConfig(),
		Policy:      &pol,
	}
}

// faultConfig is the cell's named fault schedule with its windows placed at
// fractions of horizon, the fault-free length of the run.
func (c cell) faultConfig(seed uint64, horizon sim.Duration) (*faults.Config, error) {
	fc, err := faults.NamedScaled(c.faults, sim.SplitSeed(seed, "faults/"+c.id), horizon)
	return &fc, err
}

// sectionHome reports which pool node is the primary home of cache section
// 1, by asking a scratch pool of the same shape: sections are placed whole,
// so a fault schedule only exercises failover when it lands on that node.
func sectionHome(co *cluster.Options) int {
	p, err := cluster.New(*co)
	if err != nil {
		return 0
	}
	if _, err := p.AllocSection(1, 4096); err != nil {
		return 0
	}
	return p.Table()[0].Homes[0].Node
}

func (b *bench) budget(c cell) int64 {
	return int64(c.frac() * float64(b.progs[c.app].full))
}

// runCell executes one cell once. tr is nil on untraced passes; prev, when
// set, supplies the accepted plan of an earlier execution so the traced
// pass re-runs exactly that plan without planning again.
func (b *bench) runCell(c cell, tr *cellTracer, prev *cellOut) cellOut {
	switch c.kind {
	case kindMira:
		return b.runMira(c, tr, prev)
	case kindBaseline, kindPagePolicy:
		return b.runBaseline(c, tr)
	case kindMT:
		return b.runMT(c, tr)
	default:
		return b.runServe(c, tr)
	}
}

func (b *bench) runMira(c cell, tr *cellTracer, prev *cellOut) cellOut {
	var out cellOut
	p := b.progs[c.app]
	if prev != nil && prev.plan != nil {
		out.plan, out.planHost = prev.plan, prev.planHost
	} else {
		popts := planner.Options{
			LocalBudget: b.budget(c),
			Compress:    c.compress,
			Offload:     c.offload,
		}
		popts.Cluster = c.clusterOpts()
		out.attempted++
		h0 := time.Now()
		plan, err := planner.Plan(p.w, popts)
		out.planHost = time.Since(h0)
		if err != nil {
			out.fail(c.id, "plan", err)
			return out
		}
		out.plan = plan
	}

	out.attempted++
	h0 := time.Now()
	err := b.drivePlan(c, p, &out, tr)
	out.runHost = time.Since(h0)
	if err != nil {
		out.fail(c.id, "run", err)
	}
	return out
}

// drivePlan executes the accepted plan with the public calls
// harness.runMira makes — rt.New, Bind, Init, exec.New, Run, FlushAll,
// Verify — so the traced pass can put its decorators at the seams.
func (b *bench) drivePlan(c cell, p *program, out *cellOut, tr *cellTracer) error {
	plan := out.plan
	cfg := plan.Config
	if co := c.clusterOpts(); co != nil {
		if c.faults != "" {
			fc, err := c.faultConfig(b.seed, plan.FinalTime)
			if err != nil {
				return err
			}
			co.Faults = make([]*faults.Config, co.Nodes)
			co.Faults[sectionHome(co)] = fc
		}
		cfg.Cluster = co
	}
	setupStart := time.Now()
	r, err := rt.New(cfg, farmem.NewNode(farmem.DefaultNodeConfig()))
	if err != nil {
		return err
	}
	if err := r.Bind(plan.Program); err != nil {
		return err
	}
	// The planner timed the plan with the swap section behaving like a
	// stock swap system, readahead included; run what it accepted.
	r.SwapPrefetcher(fastswap.Readahead{N: 2})
	if err := p.w.Init(r); err != nil {
		return err
	}
	var be exec.Backend = r
	if tr != nil {
		be = tr.attach(r)
	}
	ex, err := exec.New(plan.Program, be, exec.Options{Params: p.w.Params()})
	if err != nil {
		return err
	}
	clk := sim.NewClock(0)
	runStart := time.Now()
	if _, err := ex.Run(clk); err != nil {
		return err
	}
	runEnd, runSim := time.Now(), clk.Now()
	if err := r.FlushAll(clk); err != nil {
		return err
	}
	flushEnd := time.Now()
	if v, ok := p.w.(workload.Verifier); ok {
		if err := v.Verify(r); err != nil {
			return fmt.Errorf("oracle mismatch: %w", err)
		}
	}
	verifyEnd := time.Now()

	ns := r.NetStats()
	moved := r.Link().BytesMoved()
	out.simNs = int64(clk.Now().Sub(0))
	out.wire, out.effective, out.messages = moved, moved+ns.WireSaved, r.Link().Messages()
	out.sims = []int64{out.simNs, int64(runSim), out.wire, out.effective, out.messages,
		r.MissCount(), int64(plan.FinalTime), int64(plan.BaselineTime)}
	if tr != nil {
		tr.finishMira(r, out, phaseTimes{setupStart, runStart, runEnd, flushEnd, verifyEnd}, runSim, clk.Now())
	}
	return nil
}

func (b *bench) runBaseline(c cell, tr *cellTracer) cellOut {
	var out cellOut
	p := b.progs[c.app]
	opts := harness.Options{Budget: b.budget(c), Verify: true}
	if tr != nil {
		opts.Trace = tr.tracer
	}
	out.attempted++
	if c.cluster.nodes > 0 {
		opts.Nodes, opts.Replicas, opts.StripeBytes = c.cluster.nodes, c.cluster.replicas, c.cluster.stripe
		if c.faults != "" {
			// Dry run fault-free to place the schedule's windows mid-run,
			// as mira-run -faults does; it is part of the cell's cost.
			h0 := time.Now()
			dry, err := harness.Run(c.system, p.w, opts)
			out.runHost += time.Since(h0)
			if err != nil {
				out.fail(c.id, "dry run", err)
				return out
			}
			fc, err := c.faultConfig(b.seed, dry.Time)
			if err != nil {
				out.fail(c.id, "run", err)
				return out
			}
			pol := mira.ClusterResiliencePolicy()
			opts.Faults, opts.Resilience, opts.FaultNode = fc, &pol, 0
		}
	}
	h0 := time.Now()
	var res harness.Result
	var err error
	if c.kind == kindPagePolicy {
		res, err = harness.RunPagePolicy(p.w, opts, prefetch.Spec{Policy: c.policy})
	} else {
		res, err = harness.Run(c.system, p.w, opts)
	}
	out.runHost += time.Since(h0)
	if err != nil {
		out.fail(c.id, "run", err)
		return out
	}
	out.run = res
	if res.Failed {
		out.outcome = res.FailReason
		return out
	}
	out.simNs = int64(res.Time)
	out.wire, out.effective, out.messages = res.BytesOnWire, res.BytesEffective, res.Messages
	out.sims = []int64{out.simNs, out.wire, out.effective, out.messages, res.DemandMisses}
	if tr != nil {
		tr.finishBaseline(&out)
	}
	return out
}

func (b *bench) runMT(c cell, tr *cellTracer) cellOut {
	var out cellOut
	p := b.progs[c.app]
	for _, threads := range []int{1, 4} {
		// Only the 4-thread run is traced: one tracer holds one run.
		var tracer *trace.Tracer
		if tr != nil && threads == 4 {
			tracer = tr.tracer
		}
		out.attempted++
		h0 := time.Now()
		res, err := mtrun.ReadOnlyScalingTraced(c.mtMode, p.w, b.budget(c), threads, tracer)
		out.runHost += time.Since(h0)
		if err != nil {
			out.fail(c.id, fmt.Sprintf("%d-thread run", threads), err)
			return out
		}
		if threads == 1 {
			out.mtT1 = int64(res.Time)
		} else {
			out.simNs = int64(res.Time)
			out.wire, out.effective, out.messages = res.BytesMoved, res.BytesMoved, res.Messages
		}
	}
	out.sims = []int64{out.mtT1, out.simNs, out.wire, out.messages}
	if tr != nil {
		tr.finishBaseline(&out)
	}
	return out
}

func (b *bench) runServe(c cell, tr *cellTracer) cellOut {
	var out cellOut
	mix := serve.DefaultTenantMix()
	for i := range mix {
		mix[i].Requests /= b.sz.serveRequestsDiv
	}
	opts := serve.Options{
		Seed:      sim.SplitSeed(b.seed, "serve"),
		Admission: true,
		Elastic:   true,
		Faults:    c.faults,
	}
	if tr != nil {
		opts.Trace = tr.tracer
	}
	h0 := time.Now()
	res, err := serve.Run(mix, opts)
	out.runHost = time.Since(h0)
	if err != nil {
		out.attempted++
		out.fail(c.id, "serve", err)
		return out
	}
	out.serveRes = res
	out.simNs = int64(res.Elapsed)
	out.wire, out.effective = res.BytesOnWire, res.BytesEffective
	out.sims = []int64{out.simNs, out.wire, out.effective}
	// One operation per request the mix admitted: it must complete, and the
	// tenant's far memory must equal a native replay of exactly the admitted
	// requests. Requests admission control shed are reported as
	// serve.shed_share, not counted here: shedding is the modelled response
	// to overload, and its rate is part of sims, so it cannot drift unseen.
	for i, t := range res.Tenants {
		out.attempted += t.Admitted
		out.failed += t.Admitted - t.Completed
		out.sims = append(out.sims, int64(t.Admitted), int64(t.RejectedTotal()), int64(t.P99))
		key := fmt.Sprintf("%s/%d", t.Name, t.Admitted)
		want, ok := b.replays[key]
		if !ok {
			want, err = serve.NativeReplay(mix[i], t.Admitted)
			if err != nil {
				out.fail(c.id, "native replay of "+t.Name, err)
				continue
			}
			b.replays[key] = want
		}
		for name, d := range t.Dumps {
			if !bytes.Equal(d, want[name]) {
				out.fail(c.id, "tenant "+t.Name, fmt.Errorf("object %q diverges from the native replay of %d requests", name, t.Admitted))
			}
		}
	}
	if tr != nil {
		tr.finishBaseline(&out)
	}
	return out
}

// sameSims reports whether two executions of a cell agree on every
// simulated number.
func sameSims(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
