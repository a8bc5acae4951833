// Package planner implements Mira's iterative optimization flow (§3,
// Fig. 1): profile the program on the generic swap configuration, pick the
// highest-overhead functions (10%, then 20%, …) and the largest objects
// within them, plus each object they only read in one sequential or strided
// pass whose shared streaming section those objects already open (§4.2
// sizes such a section by its prefetch lead, not by its members' footprint,
// so a stream need not rank by size to be prefetched instead of
// page-faulting); run the static analyses, derive cache-section configurations
// (structure, line size, communication method), size the sections by
// sampling + ILP, compile the program against the configuration, and accept
// or roll back based on measured performance. The loop always runs its
// MaxIterations rounds and records each one: once the widening scope stops
// selecting anything new, a round re-derives the previous round's candidate,
// and the run ledger (ledger.go) answers it from the record, so such a round
// costs its analysis and buildConfig and no execution. Every execution the
// planner performs — profiling runs, sizing samples, the candidate races of
// the plane, offload and compression phases — goes through that ledger, and
// every candidate a phase races is accepted or rolled back by one step,
// planning.try.
package planner

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"mira/internal/analysis"
	"mira/internal/cluster"
	"mira/internal/codegen"
	"mira/internal/ir"
	"mira/internal/netmodel"
	"mira/internal/prefetch"
	"mira/internal/profile"
	"mira/internal/rt"
	"mira/internal/session"
	"mira/internal/sim"
	"mira/internal/trace"
	"mira/internal/workload"
)

// Workload packages a program with its data so the planner can run it.
type Workload = workload.Workload

// Options configures a planning session.
type Options struct {
	// LocalBudget is the application's local memory in bytes. Zero
	// defaults to half the workload's far-memory footprint.
	LocalBudget int64
	// MaxIterations bounds the profiling-optimization loop (§3 "system
	// administrators set an optimization target"). Default 3.
	MaxIterations int
	// EnableOffload allows function offloading decisions (§4.8).
	EnableOffload bool
	// Techniques masks individual optimizations for the Fig. 21-style
	// breakdowns; the zero value enables everything.
	Techniques TechniqueMask
	// Compress selects the wire-compression mode: "" or "off" leaves every
	// codec knob alone (the zero-cost disabled path), "on" forces ByteRun
	// compression on every section and the swap pool, and "auto" lets the
	// planner measure — after the structural iterations settle, it screens
	// sections by sampled compressibility, races the screened subset and
	// the all-on configuration against the accepted plan, and keeps
	// whichever is fastest. Auto therefore never loses to off or on.
	Compress string
	// Cluster, when non-nil, plans against that pool of far nodes instead
	// of a one-node pool. Its link model and far node — the testbed's where
	// it leaves them zero, or when it is nil — are what the planner plans
	// for; the local cost model is always rt.DefaultCostModel. Planning
	// itself is offline and fault-free: any per-node fault schedules belong
	// to the final run, not here.
	Cluster *cluster.Options
	// Offload selects the scatter-gather offload mode (Offload 2.0): "" or
	// "off" plans without offloading, "on" marks every scatter-safe
	// function offloaded, and "auto" races each candidate (and the
	// all-candidates combination) against the accepted plan, keeping
	// offload only where it is strictly faster — auto never loses to off
	// or on. Distinct from the legacy EnableOffload whole-call heuristic.
	Offload string
	// Plane selects the data-plane mode: "" leaves the classic flow alone,
	// "page" serves everything from the paged swap plane (the swap-only
	// Mira-baseline configuration of Figs. 7 and 21), "line" forces the
	// line-granular section plan, and "hybrid" races both and a per-object
	// classified split (dense sequential/strided objects paged, sparse ones
	// line-cached), accepting only improvements. Every mode plans on the
	// runtime's one heap layout, so it composes with Cluster and Offload.
	Plane string
	// Trace, when non-nil, records per-iteration planner spans (scope,
	// section count, accept/rollback) into the run's trace. The timing
	// runs inside each iteration are NOT individually instrumented — the
	// planner buffer carries one span per iteration on a cumulative
	// timeline instead.
	Trace *trace.Tracer
}

// TechniqueMask disables individual Mira techniques (the zero value turns
// every technique on).
type TechniqueMask struct {
	NoPrefetch   bool
	NoEvictHints bool
	// NoBatching is the unbatched data path (§4.5), the one switch for it:
	// no loop fusion or batched prefetch in the compiled program, no
	// asynchronous write-back queue in any emitted rt.Config, and no
	// batched gather on the page plane of the swap systems that read it.
	NoBatching     bool
	NoNative       bool
	NoSelective    bool
	NoRWOpt        bool // read/write-only optimizations (no-fetch stores)
	ForceFullAssoc bool // every section fully associative, not the planner's choice
}

// writebackQueueLines is the rt.Config.WritebackQueueLines every plan
// emits: the runtime's default queue, or none on the unbatched data path.
func (t TechniqueMask) writebackQueueLines() int {
	if t.NoBatching {
		return -1
	}
	return 0
}

// Iteration records one profiling-optimization round.
type Iteration struct {
	Index     int
	FuncFrac  float64
	Funcs     []string
	Objects   []string
	Time      sim.Duration
	Accepted  bool
	NumSecs   int
	Offloaded []string
}

// Result is the planning outcome.
type Result struct {
	Workload string
	// Program is the final compiled program (transformed clone).
	Program *ir.Program
	// Config is the accepted runtime configuration.
	Config rt.Config
	// Plan is the accepted codegen plan.
	Plan *codegen.Plan
	// BaselineTime is the iteration-0 (generic swap) execution time.
	BaselineTime sim.Duration
	// FinalTime is the accepted configuration's execution time.
	FinalTime sim.Duration
	// Iterations records every round, including rejected ones.
	Iterations []Iteration
	// Report is the last analysis report (informational). It covers every
	// object the iteration's functions access, not only the scope's.
	Report *analysis.Report
	// Planes maps each object to the data plane the accepted configuration
	// serves it from ("page", "line", or "local"). Set only when
	// Options.Plane selected a plane mode.
	Planes map[string]string
	// Offloaded lists the functions the accepted configuration ships to
	// the scatter-gather offload engine: nil unless the offload phase
	// accepted a candidate (the legacy EnableOffload decisions are in
	// Iterations).
	Offloaded []string
	// Runs counts the sessions planning opened and Reused the candidates it
	// met again and answered from the run ledger instead (a saturated
	// iteration, a mirrored sizing sample): Runs+Reused executions were
	// asked for, Runs were paid.
	Runs, Reused int
}

// Plan runs the full iterative flow for one workload.
func Plan(w Workload, opts Options) (*Result, error) {
	opts = withDefaults(opts)
	l := newLedger(w)
	res, err := plan(l, opts)
	if err != nil {
		return nil, err
	}
	res.Runs, res.Reused = len(l.runs), l.reused
	return res, nil
}

// plan is Plan's flow on a given ledger; opts already carry their defaults.
// The baseline runs, then one structural step — nothing with
// Plane "page", the plane race for "line" and "hybrid", the iterations
// otherwise — then the offload and compression phases.
func plan(l *ledger, opts Options) (*Result, error) {
	w := l.w
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.LocalBudget <= 0 {
		// Default to half the workload's far footprint — the common
		// experimental midpoint — so Plan(w, Options{}) works out of
		// the box.
		opts.LocalBudget = w.FullMemoryBytes() / 2
	}
	prog := w.Program()

	// Iteration 0: generic swap configuration, profiling run (§3
	// "initially, Mira configures the local cache as a universal swap
	// section").
	swapCfg, err := swapOnlyConfig(prog, opts)
	if err != nil {
		return nil, err
	}
	base := l.profile(prog, swapCfg)
	if base.err != nil {
		return nil, fmt.Errorf("planner: baseline run: %w", base.err)
	}
	p := &planning{l: l, opts: opts, ptrc: opts.Trace.Buffer("planner"),
		cursor: sim.Time(0).Add(base.time),
		res: &Result{Workload: w.Name(), Program: prog, Config: swapCfg, Plan: &codegen.Plan{},
			BaselineTime: base.time, FinalTime: base.time}}
	p.ptrc.Span(0, p.cursor, "planner", "baseline",
		trace.I("time_ns", int64(base.time)))

	switch opts.Plane {
	case "page":
		// Pure-page is the swap-only baseline; there is nothing for the
		// structural iterations to improve.
	case "line", "hybrid":
		// Plane modes replace the structural iterations; compression then
		// tunes whichever plane split won.
		p.planeRace(prog, base.col)
	default:
		if err := p.iterate(prog, base.col); err != nil {
			return nil, err
		}
	}
	p.offloadPhase()
	if opts.Compress == "auto" {
		p.compressAuto()
	}
	if opts.Plane != "" {
		p.res.Planes = planeAssignment(prog, p.res.Config)
	}
	return p.res, nil
}

// planning is one Plan call's state: the ledger every run goes through, the
// options, the Result accepted moves write, and the planner trace. Its spans
// lie on one cumulative timeline — the baseline run, then each timed move
// back to back — and since each timed run starts its own virtual clock at
// zero, the cursor stitches them into one readable track.
type planning struct {
	l      *ledger
	opts   Options
	res    *Result
	ptrc   *trace.Buffer
	cursor sim.Time
}

// move is one candidate a phase races against the incumbent plan.
type move struct {
	// name is the span's; a run the runtime rejects is "<name> rejected".
	name      string
	prog      *ir.Program
	cfg       rt.Config
	plan      *codegen.Plan
	offloaded []string
	// force accepts the move whatever it measures: "line" mode's line
	// candidate and Offload "on"'s all-candidates combination.
	force bool
	// args lead the span's time_ns and result.
	args []trace.Arg
}

// try is the planner's one accept step (§3, §4.1 "we roll back to the
// previous iteration's configuration"): time the move and make it the plan
// only if it is forced or strictly faster than the incumbent. It returns the
// run's outcome and whether the move was accepted.
func (p *planning) try(m move) (*outcome, bool) {
	out := p.l.profile(m.prog, m.cfg)
	if out.err != nil {
		// A candidate the runtime rejects (e.g. line floors pushed the
		// carve-up past the budget) is rolled back, not a planning failure.
		p.ptrc.Instant(p.cursor, "planner", m.name+" rejected", trace.S("err", out.err.Error()))
		return out, false
	}
	accept := m.force || out.time < p.res.FinalTime
	verdict := "rolled-back"
	if accept {
		verdict = "accepted"
		p.res.FinalTime, p.res.Config, p.res.Plan = out.time, m.cfg, m.plan
		p.res.Program, p.res.Offloaded = m.prog, m.offloaded
	}
	end := p.cursor.Add(out.time)
	p.ptrc.Span(p.cursor, end, "planner", m.name,
		append(m.args, trace.I("time_ns", int64(out.time)), trace.S("result", verdict))...)
	p.cursor = end
	return out, accept
}

// iterate is the structural iterations (§4.1): widen the analysis scope,
// derive a sectioned configuration of prog for it from the last accepted
// run's profile, and try it.
func (p *planning) iterate(prog *ir.Program, col *profile.Collector) error {
	// The analysis scope accumulates across iterations (§4.1: top 10%,
	// then 20%, …): once a function or object is selected it stays
	// selected, even if sectioning it dropped its profiled overhead out
	// of the current round's top fraction.
	funcSet := map[string]bool{}
	objSet := map[string]bool{}
	for iter := 1; iter <= p.opts.MaxIterations; iter++ {
		frac := 0.1 * float64(iter)
		for _, f := range col.TopFunctions(atLeast(frac, iter, len(col.Functions()))) {
			funcSet[f] = true
		}
		funcs := sortedKeys(funcSet)
		if len(funcs) == 0 {
			break
		}
		accessed := accessedObjects(prog, funcs)
		for _, o := range largestObjectsIn(col, accessed, atLeast(frac, iter, len(col.Objects()))) {
			objSet[o] = true
		}
		ranked := sortedKeys(objSet)
		if len(ranked) == 0 {
			break
		}
		// One analysis pass covers every object the selected functions
		// access: the scope rule reads the streams it admits from it, and
		// buildConfig reads only the scope's objects.
		report, err := analysis.Analyze(prog, funcs, accessed)
		if err != nil {
			return err
		}
		p.res.Report = report
		objs := joinStreams(prog, report, ranked, accessed)

		rec := Iteration{Index: iter, FuncFrac: frac, Funcs: funcs, Objects: objs}
		cand, err := buildConfig(p.l, prog, report, objs, col, p.opts)
		var ce compileError
		if errors.As(err, &ce) {
			return ce.error
		}
		if err != nil {
			// No feasible sectioned configuration at this scope (tiny
			// budgets can be unable to host any section beyond the
			// swap pool). The candidate is rejected; the last accepted
			// compilation — at worst iteration 0's swap config —
			// stands (§4.1's rollback).
			p.res.Iterations = append(p.res.Iterations, rec)
			p.ptrc.Instant(p.cursor, "planner", "iter.infeasible",
				trace.I("iter", int64(iter)))
			continue
		}
		rec.NumSecs = len(cand.cfg.Sections)
		args := func(offloaded []string) []trace.Arg {
			return []trace.Arg{
				trace.I("frac_pct", int64(frac*100+0.5)),
				trace.I("funcs", int64(len(funcs))),
				trace.I("objs", int64(len(objs))),
				trace.I("secs", int64(len(cand.cfg.Sections))),
				trace.I("offloaded", int64(len(offloaded))),
			}
		}
		name := fmt.Sprintf("iteration %d", iter)
		out, accepted := p.try(move{name: name, prog: cand.prog, cfg: cand.cfg, plan: cand.plan, args: args(nil)})
		rec.Time, rec.Accepted = out.time, accepted
		if accepted {
			col = out.col
		}
		// The legacy §4.8 cost model's offload choice races the candidate
		// it would offload from, so offload stays only where it is faster.
		offloaded, err := p.decideOffloads(prog, funcs, objs)
		if err != nil {
			return err
		}
		if len(offloaded) > 0 {
			plan := *cand.plan
			plan.Offload = map[string]bool{}
			for _, f := range offloaded {
				plan.Offload[f] = true
			}
			oprog, err := p.l.compile(prog, &plan)
			if err != nil {
				return err
			}
			out, accepted := p.try(move{name: name + " offload", prog: oprog, cfg: cand.cfg, plan: &plan, args: args(offloaded)})
			if accepted {
				rec.Time, rec.Accepted, rec.Offloaded = out.time, true, offloaded
				col = out.col
			}
		}
		p.res.Iterations = append(p.res.Iterations, rec)
	}
	return nil
}

// Validate checks the three mode strings — Compress, Offload and Plane — so a
// caller can reject a bad mode before anything runs; Plan checks them too.
func (opts Options) Validate() error {
	for _, m := range []struct {
		field, mode string
		want        []string
	}{
		{"Compress", opts.Compress, []string{"off", "on", "auto"}},
		{"Offload", opts.Offload, []string{"off", "on", "auto"}},
		{"Plane", opts.Plane, []string{"page", "line", "hybrid"}},
	} {
		if m.mode != "" && !slices.Contains(m.want, m.mode) {
			return fmt.Errorf("planner: unknown %s mode %q (want %s, %s, or %s)", m.field, m.mode, m.want[0], m.want[1], m.want[2])
		}
	}
	return nil
}

// sortedKeys returns a set's members in deterministic order.
func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// atLeast widens frac so that it selects at least minK of n items.
func atLeast(frac float64, minK, n int) float64 {
	if n <= 0 {
		return frac
	}
	need := float64(minK) / float64(n)
	if need > frac {
		return need
	}
	return frac
}

func withDefaults(opts Options) Options {
	if opts.MaxIterations == 0 {
		opts.MaxIterations = 3
	}
	return opts
}

// link is the interconnect the planner plans for: the pool's link model
// (cluster.Testbed).
func (o Options) link() netmodel.Config { return cluster.Testbed(o.Cluster).Net }

// SwapPolicy is what runs on the swap pool of every configuration the
// planner times: the generic swap section behaves like a traditional swap
// system (§3 "the initial execution works almost the same as traditional
// page swap-based systems"), cluster readahead included. Whoever executes an
// accepted plan as it was measured installs this.
func SwapPolicy() prefetch.Policy { return prefetch.Readahead{N: 2} }

// swapOnlyConfig places every non-local object in the swap section.
func swapOnlyConfig(prog *ir.Program, opts Options) (rt.Config, error) {
	cfg, err := session.SwapOnly(prog, opts.LocalBudget)
	if err != nil {
		return rt.Config{}, fmt.Errorf("planner: %w", err)
	}
	cfg.Cost = rt.DefaultCostModel()
	cfg.Net = opts.link()
	cfg.Cluster = opts.Cluster
	cfg.WritebackQueueLines = opts.Techniques.writebackQueueLines()
	cfg.SwapCompress = opts.Compress == "on"
	return cfg, nil
}

// accessedObjects returns, sorted, the non-local objects the selected
// functions and their callees access.
func accessedObjects(prog *ir.Program, funcs []string) []string {
	accessed := map[string]bool{}
	seen := map[string]bool{}
	var visit func(name string)
	visit = func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		fn, ok := prog.Func(name)
		if !ok {
			return
		}
		ir.Walk(fn.Body, func(s ir.Stmt) bool {
			switch st := s.(type) {
			case *ir.Load:
				accessed[st.Obj] = true
			case *ir.Store:
				accessed[st.Obj] = true
			case *ir.Intrinsic:
				for _, t := range []ir.TensorRef{st.Dst, st.A, st.B} {
					if t.Obj != "" {
						accessed[t.Obj] = true
					}
				}
			case *ir.Call:
				visit(st.Callee)
			}
			return true
		})
	}
	for _, f := range funcs {
		visit(f)
	}
	for name := range accessed {
		if o, ok := prog.Object(name); !ok || o.Local {
			delete(accessed, name)
		}
	}
	return sortedKeys(accessed)
}

// largestObjectsIn returns the largest frac of the accessed objects (§4.1:
// "we pick the largest 10% objects" *in* the selected functions), ranked by
// profiled size.
func largestObjectsIn(col *profile.Collector, accessed []string, frac float64) []string {
	var ranked []string
	for _, name := range col.LargestObjects(1.0) {
		if slices.Contains(accessed, name) {
			ranked = append(ranked, name)
		}
	}
	if len(ranked) == 0 {
		return nil
	}
	k := profile.CeilFrac(frac, len(ranked))
	if k < 1 {
		k = 1
	}
	if k > len(ranked) {
		k = len(ranked)
	}
	return ranked[:k]
}

// joinStreams widens the size-ranked scope ranked (§4.1) by the streams the
// size cut leaves out: an accessed object the selected functions only read,
// in a single sequential or strided pass, joins the scope when a ranked
// object already opened the shared streaming section it would go to
// (streamSection). Such a section is sized by its prefetch lead, not by its
// members' footprint (§4.2), so the stream rides a prefetched path the plan
// already has instead of page-faulting through the swap pool. The rule
// opens no section, so a stream with no open section to join stays out, and
// it admits no object the scope writes: admitting written streams was
// measured slower (DESIGN §4, "Analysis scope").
func joinStreams(prog *ir.Program, report *analysis.Report, ranked, accessed []string) []string {
	section := func(name string) (string, *analysis.ObjectAccess) {
		m := report.MergedObject(name)
		if m == nil {
			return "", nil
		}
		o, _ := prog.Object(name)
		return streamSection(o, m), m
	}
	open := map[string]bool{}
	for _, name := range ranked {
		if key, _ := section(name); key != "" {
			open[key] = true
		}
	}
	objs := slices.Clone(ranked)
	for _, name := range accessed {
		if slices.Contains(ranked, name) {
			continue
		}
		key, m := section(name)
		if open[key] && m.ReadOnly() && (m.Pattern == analysis.PatternSequential || m.Pattern == analysis.PatternStrided) {
			objs = append(objs, name)
		}
	}
	sort.Strings(objs)
	return objs
}
