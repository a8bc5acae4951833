// Package exec interprets IR programs against a far-memory backend,
// charging virtual time for compute and memory events. One program runs
// unchanged on the Mira runtime and on every baseline, which is how the
// benchmark harness compares systems on identical workloads — and because
// the backends move real bytes, the interpreter's results are checked for
// equality across systems in the integration tests.
package exec

import (
	"fmt"

	"mira/internal/ir"
	"mira/internal/profile"
	"mira/internal/rt"
	"mira/internal/sim"
)

// maxCallDepth bounds recursion; our workloads are shallow.
const maxCallDepth = 128

// Options configures an Executor.
type Options struct {
	// ComputeOp is the cost of one scalar IR operator.
	ComputeOp sim.Duration
	// FloatOp is the cost of one floating-point operation in tensor
	// intrinsics.
	FloatOp sim.Duration
	// Collector receives profiling events (nil disables profiling).
	Collector *profile.Collector
	// Params binds the entry function's parameters.
	Params map[string]Value
	// Yield, when set, is called immediately before every backend memory
	// operation (access, prefetch, eviction hint, fence, release, bulk
	// transfer). The multithreaded drivers install sim.Thread.Yield here
	// so the deterministic scheduler can interleave threads at every
	// memory-op boundary: a call switches threads only when another one
	// is now earlier in (virtual time, id) and otherwise costs a scan of
	// the group's clocks. Single-threaded runs leave it nil and pay one
	// nil check per operation.
	Yield func()
}

// DefaultOptions matches rt.DefaultCostModel's compute costs.
func DefaultOptions() Options {
	return Options{ComputeOp: 1 * sim.Nanosecond, FloatOp: 1 * sim.Nanosecond}
}

// Executor interprets one program over one backend. Everything an execution
// writes lives here or on a frame; the resolved code it runs (tab) is
// read-only and shared with the executor's offload children.
type Executor struct {
	p   *ir.Program
	be  Backend
	opt Options
	tab *table
	// hb is be's handle capability, probed once in New (nil: every backend
	// call goes by name).
	hb    handler
	depth int
	// remote, when non-nil, redirects accesses to far-node memory: the
	// executor is running an offloaded function body (§4.8).
	remote RemoteEnv
	// misses samples the backend's aggregate miss counter when
	// profiling (nil when the backend has none or no collector is set).
	misses missCounter
	buf    [8]byte
	floats [3][]float64 // tensor operand scratch, see operand
	// batch is the BatchPrefetch scratch: a copy of batchOf's entry template
	// whose Elems the statement overwrites on each execution.
	batch   []rt.BatchEntry
	batchOf *batchSite
	// gathered is the GatherPrefetch scratch — the window's target entries
	// — and an intrinsic's operands ahead, refilled on each execution.
	gathered []rt.BatchEntry
}

// missCounter is the optional backend capability behind per-function miss
// rates (§4.1).
type missCounter interface {
	MissCount() int64
}

// New builds an executor for p over be.
func New(p *ir.Program, be Backend, opt Options) (*Executor, error) {
	if err := ir.Validate(p); err != nil {
		return nil, err
	}
	if opt.ComputeOp == 0 {
		opt.ComputeOp = DefaultOptions().ComputeOp
	}
	if opt.FloatOp == 0 {
		opt.FloatOp = DefaultOptions().FloatOp
	}
	e := &Executor{p: p, be: be, opt: opt}
	e.hb, _ = be.(handler)
	e.tab = &table{p: p, hb: e.hb, codes: make(map[*ir.Func][]node)}
	if opt.Collector != nil {
		if mc, ok := be.(missCounter); ok {
			e.misses = mc
		}
	}
	return e, nil
}

// child builds the executor of an offloaded body: same program, backend and
// resolved code, its own scratch, accesses redirected to remote, no profile.
func (e *Executor) child(opt Options, remote RemoteEnv) *Executor {
	return &Executor{p: e.p, be: e.be, opt: opt, tab: e.tab, hb: e.hb, remote: remote}
}

// Run executes the entry function and returns its result.
func (e *Executor) Run(clk *sim.Clock) (Value, error) {
	f, err := e.p.EntryFunc()
	if err != nil {
		return Value{}, err
	}
	args := make([]Value, len(f.Params))
	for i, name := range f.Params {
		v, ok := e.opt.Params[name]
		if !ok {
			return Value{}, fmt.Errorf("exec: entry parameter %q not bound", name)
		}
		args[i] = v
	}
	if e.opt.Collector != nil {
		for _, o := range e.p.Objects {
			e.opt.Collector.AllocSite(o.Name, o.SizeBytes())
		}
	}
	return e.call(clk, f, args)
}

// frame is one function activation: the clock it charges, what one operator
// costs there (the executor's ComputeOp, which compiled expressions read when
// they run), its registers, its arguments (what a compiled parameter reads)
// and, when profiling, the function's record.
type frame struct {
	clk    *sim.Clock
	opCost sim.Duration
	regs   []Value
	args   []Value
	rec    *profile.FuncRecord
}

// newFrame opens an activation of fn.
func (e *Executor) newFrame(clk *sim.Clock, fn *ir.Func, args []Value) frame {
	fr := frame{clk: clk, opCost: e.opt.ComputeOp, regs: make([]Value, fn.NumRegs), args: args}
	if e.opt.Collector != nil {
		fr.rec = e.opt.Collector.Record(fn.Name)
	}
	return fr
}

// call runs fn with args, recording its profile.
func (e *Executor) call(clk *sim.Clock, fn *ir.Func, args []Value) (Value, error) {
	return e.invoke(clk, fn, e.tab.resolve(fn), args)
}

// invoke is call with fn's resolved body supplied: a scattered sub-offload
// runs a function built for that one dispatch, which call would memoise for
// nobody.
func (e *Executor) invoke(clk *sim.Clock, fn *ir.Func, body []node, args []Value) (Value, error) {
	if e.depth >= maxCallDepth {
		return Value{}, fmt.Errorf("exec: call depth exceeds %d at %q", maxCallDepth, fn.Name)
	}
	e.depth++
	fr := e.newFrame(clk, fn, args)
	start := clk.Now()
	ret, _, err := e.run(&fr, body)
	if fr.rec != nil {
		fr.rec.Call(clk.Now().Sub(start))
	}
	e.depth--
	return ret, err
}

// run executes a resolved body; returned reports whether a Return fired.
func (e *Executor) run(fr *frame, body []node) (ret Value, returned bool, err error) {
	clk := fr.clk
	for i := range body {
		n := &body[i]
		switch n.op {
		case opAssign:
			v, err := n.a(fr)
			if err != nil {
				return Value{}, false, err
			}
			fr.regs[n.dst] = v

		case opLoad:
			idx, err := n.a(fr)
			if err != nil {
				return Value{}, false, err
			}
			a := n.acc
			if a.err != nil {
				return Value{}, false, a.err
			}
			buf := e.buf[:a.field.Bytes]
			if err := e.access(fr, a, idx.AsInt(), buf, false); err != nil {
				return Value{}, false, err
			}
			fr.regs[n.dst] = a.codec.decode(buf)

		case opStore:
			idx, err := n.a(fr)
			if err != nil {
				return Value{}, false, err
			}
			val, err := n.b(fr)
			if err != nil {
				return Value{}, false, err
			}
			a := n.acc
			if a.err != nil {
				return Value{}, false, a.err
			}
			buf := e.buf[:a.field.Bytes]
			a.codec.encode(val, buf)
			if err := e.access(fr, a, idx.AsInt(), buf, true); err != nil {
				return Value{}, false, err
			}

		case opLoop:
			startV, err := n.a(fr)
			if err != nil {
				return Value{}, false, err
			}
			endV, err := n.b(fr)
			if err != nil {
				return Value{}, false, err
			}
			stepV, err := n.c(fr)
			if err != nil {
				return Value{}, false, err
			}
			step, end := stepV.AsInt(), endV.AsInt()
			if step <= 0 {
				return Value{}, false, fmt.Errorf("exec: loop %q step %d", n.name, step)
			}
			for iv := startV.AsInt(); iv < end; iv += step {
				fr.regs[n.dst] = IntV(iv)
				clk.Advance(e.opt.ComputeOp) // loop control
				r, returned, err := e.run(fr, n.body)
				if err != nil {
					return Value{}, false, err
				}
				if returned {
					return r, true, nil
				}
			}

		case opIf:
			c, err := n.a(fr)
			if err != nil {
				return Value{}, false, err
			}
			body := n.body
			if !c.Truthy() {
				body = n.els
			}
			r, returned, err := e.run(fr, body)
			if err != nil {
				return Value{}, false, err
			}
			if returned {
				return r, true, nil
			}

		case opCall:
			cs := n.call
			args := make([]Value, len(cs.args))
			for i, a := range cs.args {
				v, err := a(fr)
				if err != nil {
					return Value{}, false, err
				}
				args[i] = v
			}
			var r Value
			var err error
			if cs.offload && e.remote == nil {
				r, err = e.offloadCall(clk, cs.callee, args)
			} else {
				r, err = e.call(clk, cs.callee, args)
			}
			if err != nil {
				return Value{}, false, err
			}
			if n.dst >= 0 {
				fr.regs[n.dst] = r
			}

		case opReturn:
			if n.a == nil {
				return Value{}, true, nil
			}
			v, err := n.a(fr)
			if err != nil {
				return Value{}, false, err
			}
			return v, true, nil

		case opPrefetch:
			if e.remote != nil {
				break // far-node code needs no prefetch
			}
			idx, err := n.a(fr)
			if err != nil {
				return Value{}, false, err
			}
			a := n.acc
			if a.err != nil {
				return Value{}, false, a.err
			}
			e.yield()
			t0 := clk.Now()
			if a.byH {
				err = e.hb.PrefetchH(clk, a.h, idx.AsInt(), a.field)
			} else {
				err = e.be.Prefetch(clk, a.name, idx.AsInt(), a.field)
			}
			if err != nil {
				return Value{}, false, err
			}
			e.chargeRuntime(fr, clk.Now().Sub(t0))

		case opBatchPrefetch:
			if e.remote != nil {
				break
			}
			b := n.batch
			if e.batchOf != b {
				e.batch, e.batchOf = append(e.batch[:0], b.entries...), b
			}
			for i, x := range b.idx {
				idx, err := x(fr)
				if err != nil {
					return Value{}, false, err
				}
				if b.errs != nil && b.errs[i] != nil {
					return Value{}, false, b.errs[i]
				}
				e.batch[i].Elem = idx.AsInt()
			}
			e.yield()
			t0 := clk.Now()
			if err := e.be.PrefetchBatch(clk, e.batch); err != nil {
				return Value{}, false, err
			}
			e.chargeRuntime(fr, clk.Now().Sub(t0))

		case opGatherPrefetch:
			if e.remote != nil {
				break
			}
			if err := e.gather(fr, n); err != nil {
				return Value{}, false, err
			}

		case opEvict:
			if e.remote != nil {
				break
			}
			idx, err := n.a(fr)
			if err != nil {
				return Value{}, false, err
			}
			e.yield()
			t0 := clk.Now()
			if a := n.acc; a.byH {
				err = e.hb.EvictHintH(clk, a.h, idx.AsInt())
			} else {
				err = e.be.EvictHint(clk, a.name, idx.AsInt())
			}
			if err != nil {
				return Value{}, false, err
			}
			e.chargeRuntime(fr, clk.Now().Sub(t0))

		case opFence:
			if e.remote != nil {
				break
			}
			e.yield()
			t0 := clk.Now()
			e.be.Fence(clk)
			e.chargeRuntime(fr, clk.Now().Sub(t0))

		case opRelease:
			if e.remote != nil {
				break
			}
			e.yield()
			t0 := clk.Now()
			var err error
			if a := n.acc; a.byH {
				err = e.hb.ReleaseH(clk, a.h)
			} else {
				err = e.be.Release(clk, a.name)
			}
			if err != nil {
				return Value{}, false, err
			}
			e.chargeRuntime(fr, clk.Now().Sub(t0))

		case opIntrinsic:
			if err := e.intrinsic(fr, n.intr); err != nil {
				return Value{}, false, err
			}

		default: // opInvalid
			return Value{}, false, n.err
		}
	}
	return Value{}, false, nil
}

// gather runs a GatherPrefetch. Each source element in [lo, hi) pays what
// the loop `for j := lo; j < hi; j++ { load src[j].f; prefetch target[v] }`
// pays for it — one loop-control operator and the loads — and the window's
// prefetches go out as one batch: the doorbell's posting cost replaces one
// message per line.
func (e *Executor) gather(fr *frame, n *node) error {
	lo, err := n.a(fr)
	if err != nil {
		return err
	}
	hi, err := n.b(fr)
	if err != nil {
		return err
	}
	g := n.gather
	if g.err != nil {
		return g.err
	}
	clk := fr.clk
	e.gathered = e.gathered[:0]
	for j := lo.AsInt(); j < hi.AsInt(); j++ {
		clk.Advance(e.opt.ComputeOp) // loop control
		for c, a := range g.src {
			buf := e.buf[:a.field.Bytes]
			if err := e.access(fr, a, j, buf, false); err != nil {
				return err
			}
			t := g.targets[c]
			t.Elem = a.codec.decode(buf).AsInt()
			e.gathered = append(e.gathered, t)
		}
	}
	if len(e.gathered) == 0 {
		return nil
	}
	e.yield()
	t0 := clk.Now()
	if err := e.be.PrefetchBatch(clk, e.gathered); err != nil {
		return err
	}
	e.chargeRuntime(fr, clk.Now().Sub(t0))
	return nil
}

// access routes a scalar access to the local backend or, in offloaded mode,
// directly to far-node memory (charging the remote clock a native access).
func (e *Executor) access(fr *frame, a *access, elem int64, buf []byte, write bool) error {
	clk := fr.clk
	e.yield() // offloaded too: scattered sub-offloads interleave at access boundaries
	if e.remote != nil {
		clk.Advance(e.opt.ComputeOp) // native far-node access
		return e.remote.RemoteAccess(clk, a.name, elem, a.field, buf, write)
	}
	t0 := clk.Now()
	var m0 int64
	if e.misses != nil {
		m0 = e.misses.MissCount()
	}
	var err error
	if a.byH {
		err = e.hb.AccessH(clk, a.h, elem, a.field, buf, write, a.opts)
	} else {
		err = e.be.Access(clk, a.name, elem, a.field, buf, write, a.opts)
	}
	e.chargeRuntime(fr, clk.Now().Sub(t0))
	if e.misses != nil {
		fr.rec.Access(e.misses.MissCount() > m0)
	}
	return err
}

// yield hands control to the interleaving scheduler, if one is installed
// (see Options.Yield).
func (e *Executor) yield() {
	if e.opt.Yield != nil {
		e.opt.Yield()
	}
}

// chargeRuntime attributes backend-internal time to the current function.
func (e *Executor) chargeRuntime(fr *frame, d sim.Duration) {
	if fr.rec != nil && d > 0 {
		fr.rec.RuntimeTime(d)
	}
}

func applyBin(op ir.BinOp, a, b Value) (Value, error) {
	if a.Float || b.Float {
		x, y := a.AsFloat(), b.AsFloat()
		switch op {
		case ir.OpAdd:
			return FloatV(x + y), nil
		case ir.OpSub:
			return FloatV(x - y), nil
		case ir.OpMul:
			return FloatV(x * y), nil
		case ir.OpDiv:
			return FloatV(x / y), nil
		case ir.OpMin:
			if x < y {
				return FloatV(x), nil
			}
			return FloatV(y), nil
		case ir.OpMax:
			if x > y {
				return FloatV(x), nil
			}
			return FloatV(y), nil
		case ir.OpLt:
			return boolV(x < y), nil
		case ir.OpLe:
			return boolV(x <= y), nil
		case ir.OpGt:
			return boolV(x > y), nil
		case ir.OpGe:
			return boolV(x >= y), nil
		case ir.OpEq:
			return boolV(x == y), nil
		case ir.OpNe:
			return boolV(x != y), nil
		case ir.OpAnd:
			return boolV(x != 0 && y != 0), nil
		case ir.OpOr:
			return boolV(x != 0 || y != 0), nil
		default:
			return Value{}, fmt.Errorf("exec: operator %v undefined on floats", op)
		}
	}
	x, y := a.I, b.I
	switch op {
	case ir.OpAdd:
		return IntV(x + y), nil
	case ir.OpSub:
		return IntV(x - y), nil
	case ir.OpMul:
		return IntV(x * y), nil
	case ir.OpDiv:
		if y == 0 {
			return Value{}, fmt.Errorf("exec: integer division by zero")
		}
		return IntV(x / y), nil
	case ir.OpMod:
		if y == 0 {
			return Value{}, fmt.Errorf("exec: integer modulo by zero")
		}
		return IntV(x % y), nil
	case ir.OpMin:
		if x < y {
			return IntV(x), nil
		}
		return IntV(y), nil
	case ir.OpMax:
		if x > y {
			return IntV(x), nil
		}
		return IntV(y), nil
	case ir.OpLt:
		return boolV(x < y), nil
	case ir.OpLe:
		return boolV(x <= y), nil
	case ir.OpGt:
		return boolV(x > y), nil
	case ir.OpGe:
		return boolV(x >= y), nil
	case ir.OpEq:
		return boolV(x == y), nil
	case ir.OpNe:
		return boolV(x != y), nil
	case ir.OpAnd:
		return boolV(x != 0 && y != 0), nil
	case ir.OpOr:
		return boolV(x != 0 || y != 0), nil
	default:
		return Value{}, fmt.Errorf("exec: unknown operator %v", op)
	}
}

func applyUn(op ir.UnOp, a Value) (Value, error) {
	switch op {
	case ir.OpNeg:
		if a.Float {
			return FloatV(-a.F), nil
		}
		return IntV(-a.I), nil
	case ir.OpNot:
		return boolV(!a.Truthy()), nil
	case ir.OpAbs:
		if a.Float {
			if a.F < 0 {
				return FloatV(-a.F), nil
			}
			return a, nil
		}
		if a.I < 0 {
			return IntV(-a.I), nil
		}
		return a, nil
	default:
		return Value{}, fmt.Errorf("exec: unknown unary operator %v", op)
	}
}

func boolV(b bool) Value {
	if b {
		return IntV(1)
	}
	return IntV(0)
}
