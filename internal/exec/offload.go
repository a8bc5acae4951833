package exec

import (
	"fmt"
	"slices"

	"mira/internal/analysis"
	"mira/internal/ir"
	"mira/internal/offload"
	"mira/internal/sim"
)

// offloadCall executes fn on the far-memory node (§4.8): flush the cached
// state of every far object the function touches, ship the scalar arguments
// over, run the body against far-node memory on the far CPU, and ship the
// result back.
//
// When the backend exposes a scatter-gather engine (every Mira runtime
// does, one node or many) and the function fits the scatter shape, the
// call is split into per-node sub-offloads running in parallel against the
// stripe replicas each node owns. Otherwise — a function AnalyzeScatter
// declines, or a backend without an engine — the whole-call RPC path below
// runs: the remote body is measured on its own clock and the local clock
// is charged the full RPC.
func (e *Executor) offloadCall(clk *sim.Clock, fn *ir.Func, args []Value) (Value, error) {
	renv, ok := e.be.(RemoteEnv)
	if !ok {
		return Value{}, fmt.Errorf("exec: backend cannot offload %q", fn.Name)
	}
	// Flush objects the function (transitively) accesses so the far node
	// sees up-to-date data, and so post-call local reads refetch data the
	// far node wrote (§5.2.1 "generating offloaded function binaries").
	for _, obj := range objectsOf(e.p, fn, map[string]bool{}) {
		t0 := clk.Now()
		if err := e.be.FlushObject(clk, obj); err != nil {
			return Value{}, err
		}
		// Flushing is runtime work; attribute to the caller's profile
		// under the offloaded function's name.
		if e.opt.Collector != nil {
			e.opt.Collector.RuntimeTime(fn.Name, clk.Now().Sub(t0))
		}
	}

	if v, handled, err := e.scatterCall(clk, fn, args); handled || err != nil {
		return v, err
	}

	// Run the body remotely on a fresh clock.
	remoteExec := e.child(Options{ComputeOp: e.opt.ComputeOp, FloatOp: e.opt.FloatOp}, renv)
	rclk := sim.NewClock(0)
	ret, err := remoteExec.call(rclk, fn, args)
	if err != nil {
		return Value{}, err
	}
	remoteCompute := rclk.Now().Sub(0)

	argBytes := 8 * len(args)
	resBytes := 8
	renv.OffloadTransfer(clk, argBytes, resBytes, remoteCompute)
	if e.opt.Collector != nil {
		e.opt.Collector.FuncCall(fn.Name+"@far", sim.Duration(float64(remoteCompute)*renv.CPUSlowdown()))
	}
	return ret, nil
}

// scatterer is the optional backend capability behind scatter-gather
// offloading; the Mira runtime reports its pool's engine.
type scatterer interface {
	ScatterEngine() *offload.Engine
}

// scatterCall tries the scatter-gather path: recognize the function's
// reduction/map shape, partition the driving index range by placement, run
// per-node sub-offloads in virtual-time parallel, combine the partial
// accumulators, and execute the tail (constant-indexed result stores)
// locally behind a fence. handled=false means the caller should fall back
// to the legacy whole-call RPC.
func (e *Executor) scatterCall(clk *sim.Clock, fn *ir.Func, args []Value) (Value, bool, error) {
	se, ok := e.be.(scatterer)
	if !ok {
		return Value{}, false, nil
	}
	eng := se.ScatterEngine()
	if eng == nil {
		return Value{}, false, nil
	}
	plan, ok := analysis.AnalyzeScatter(e.p, fn)
	if !ok {
		return Value{}, false, nil
	}
	lo, ok := bound(fn, plan.Lo, args)
	if !ok {
		return Value{}, false, nil
	}
	hi, ok := bound(fn, plan.Hi, args)
	if !ok {
		return Value{}, false, nil
	}

	req := offload.Request{
		Func:     fn.Name,
		Object:   plan.Object,
		Lo:       lo,
		Hi:       hi,
		ArgBytes: 8*len(args) + 16, // scalars plus the dispatch descriptor
		ResBytes: 8,
	}
	runner := func(rclk *sim.Clock, yield func(), ranges [][2]int64, env *offload.NodeEnv) (offload.Scalar, error) {
		sfn := plan.SubFunc(ranges)
		slow := env.Slowdown()
		sub := e.child(Options{
			ComputeOp: sim.Duration(float64(e.opt.ComputeOp) * slow),
			FloatOp:   sim.Duration(float64(e.opt.FloatOp) * slow),
			Yield:     yield,
		}, scatterEnv{env: env})
		ret, err := sub.invoke(rclk, sfn, e.tab.block(sfn, sfn.Body), args)
		if err != nil {
			return offload.Scalar{}, err
		}
		return offload.Scalar{I: ret.I, F: ret.F, Float: ret.Float}, nil
	}

	start := clk.Now()
	partials, handled, err := eng.Execute(clk, req, runner)
	if err != nil {
		return Value{}, true, err
	}
	if !handled {
		return Value{}, false, nil
	}

	acc := IntV(plan.Init)
	for _, p := range partials {
		v := Value{I: p.I, F: p.F, Float: p.Float}
		acc, err = applyBin(plan.Op, acc, v)
		if err != nil {
			return Value{}, true, err
		}
	}

	// One fenced commit boundary, then the tail runs locally: result
	// stores go through the (just flushed) local cache like any other
	// access, so post-call reads observe exactly what sequential
	// execution would have produced.
	e.yield()
	e.be.Fence(clk)
	fr := e.newFrame(clk, fn, args)
	fr.regs[plan.AccReg] = acc
	ret, returned, err := e.run(&fr, e.tab.block(fn, plan.Tail))
	if err != nil {
		return Value{}, true, err
	}
	if !returned {
		ret = Value{} // match a fall-off-the-end sequential call
	}
	if e.opt.Collector != nil {
		e.opt.Collector.FuncCall(fn.Name+"@far", clk.Now().Sub(start))
	}
	return ret, true, nil
}

// bound computes a scatter bound, which AnalyzeScatter admits only as a
// constant or one of fn's scalar parameters.
func bound(fn *ir.Func, x ir.Expr, args []Value) (int64, bool) {
	switch x := x.(type) {
	case *ir.Const:
		return x.I, true
	case *ir.Param:
		if i := slices.Index(fn.Params, x.Name); i >= 0 {
			return args[i].AsInt(), true
		}
	}
	return 0, false
}

// scatterEnv adapts a sub-offload's NodeEnv to the executor's RemoteEnv:
// accesses stage writes / serve reads replica-locally, and a node loss
// surfaces as offload.ErrNodeLost, which the engine turns into a
// re-dispatch.
type scatterEnv struct {
	env *offload.NodeEnv
}

func (s scatterEnv) RemoteAccess(clk *sim.Clock, name string, elem int64, field ir.Field, buf []byte, write bool) error {
	return s.env.Access(clk, name, elem, field, buf, write)
}

func (s scatterEnv) RemoteBulk(clk *sim.Clock, name string, elem int64, buf []byte, write bool) error {
	return fmt.Errorf("exec: bulk transfer inside a scattered offload (shape analysis should have rejected it)")
}

func (s scatterEnv) CPUSlowdown() float64 { return s.env.Slowdown() }

func (s scatterEnv) OffloadTransfer(clk *sim.Clock, argBytes, resBytes int, remoteCompute sim.Duration) {
	// Transfer is priced by the engine's chunk streams, not per call.
}

// objectsOf lists the far-relevant objects a function (and its callees)
// accesses.
func objectsOf(p *ir.Program, fn *ir.Func, visited map[string]bool) []string {
	if visited[fn.Name] {
		return nil
	}
	visited[fn.Name] = true
	seen := map[string]bool{}
	var out []string
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	ir.Walk(fn.Body, func(s ir.Stmt) bool {
		switch st := s.(type) {
		case *ir.Load:
			add(st.Obj)
		case *ir.Store:
			add(st.Obj)
		case *ir.Intrinsic:
			for _, t := range []ir.TensorRef{st.Dst, st.A, st.B} {
				if t.Obj != "" {
					add(t.Obj)
				}
			}
		case *ir.Call:
			if callee, ok := p.Func(st.Callee); ok {
				for _, o := range objectsOf(p, callee, visited) {
					add(o)
				}
			}
		}
		return true
	})
	return out
}
