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
	// memory-op boundary; single-threaded runs leave it nil and pay one
	// nil check per operation.
	Yield func()
}

// DefaultOptions matches rt.DefaultCostModel's compute costs.
func DefaultOptions() Options {
	return Options{ComputeOp: 1 * sim.Nanosecond, FloatOp: 1 * sim.Nanosecond}
}

// Executor interprets one program over one backend.
type Executor struct {
	p      *ir.Program
	be     Backend
	opt    Options
	fields map[string]ir.Field // "obj\x00field" -> resolved field
	depth  int
	// remote, when non-nil, redirects accesses to far-node memory: the
	// executor is running an offloaded function body (§4.8).
	remote RemoteEnv
	// misses samples the backend's aggregate miss counter when
	// profiling (nil when the backend has none or no collector is set).
	misses missCounter
	buf    [8]byte
	stage  []byte // bulk staging scratch, see staging
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
	e := &Executor{p: p, be: be, opt: opt, fields: make(map[string]ir.Field)}
	if opt.Collector != nil {
		if mc, ok := be.(missCounter); ok {
			e.misses = mc
		}
	}
	return e, nil
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

// frame is one function activation.
type frame struct {
	fn   *ir.Func
	regs []Value
}

// call runs fn with args, recording its profile.
func (e *Executor) call(clk *sim.Clock, fn *ir.Func, args []Value) (Value, error) {
	if e.depth >= maxCallDepth {
		return Value{}, fmt.Errorf("exec: call depth exceeds %d at %q", maxCallDepth, fn.Name)
	}
	e.depth++
	defer func() { e.depth-- }()

	fr := &frame{fn: fn, regs: make([]Value, fn.NumRegs)}
	// Parameters are read via ir.Param, not registers; stash them on the
	// frame.
	params := make(map[string]Value, len(args))
	for i, name := range fn.Params {
		params[name] = args[i]
	}
	start := clk.Now()
	ret, _, err := e.block(clk, fr, params, fn.Body)
	if e.opt.Collector != nil {
		e.opt.Collector.FuncCall(fn.Name, clk.Now().Sub(start))
	}
	return ret, err
}

// block executes stmts; returned reports whether a Return fired.
func (e *Executor) block(clk *sim.Clock, fr *frame, params map[string]Value, stmts []ir.Stmt) (ret Value, returned bool, err error) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *ir.Assign:
			v, err := e.eval(clk, fr, params, st.Val)
			if err != nil {
				return Value{}, false, err
			}
			fr.regs[st.Dst] = v

		case *ir.Load:
			idx, err := e.eval(clk, fr, params, st.Index)
			if err != nil {
				return Value{}, false, err
			}
			f, err := e.field(st.Obj, st.Field)
			if err != nil {
				return Value{}, false, err
			}
			buf := e.buf[:f.Bytes]
			if err := e.access(clk, fr, st.Obj, idx.AsInt(), f, buf, false,
				rt.AccessOpts{Native: st.Native}); err != nil {
				return Value{}, false, err
			}
			v, err := decodeField(f, buf)
			if err != nil {
				return Value{}, false, err
			}
			fr.regs[st.Dst] = v

		case *ir.Store:
			idx, err := e.eval(clk, fr, params, st.Index)
			if err != nil {
				return Value{}, false, err
			}
			val, err := e.eval(clk, fr, params, st.Val)
			if err != nil {
				return Value{}, false, err
			}
			f, err := e.field(st.Obj, st.Field)
			if err != nil {
				return Value{}, false, err
			}
			buf := e.buf[:f.Bytes]
			if err := encodeField(f, val, buf); err != nil {
				return Value{}, false, err
			}
			if err := e.access(clk, fr, st.Obj, idx.AsInt(), f, buf, true,
				rt.AccessOpts{Native: st.Native, NoFetch: st.NoFetch}); err != nil {
				return Value{}, false, err
			}

		case *ir.Loop:
			startV, err := e.eval(clk, fr, params, st.Start)
			if err != nil {
				return Value{}, false, err
			}
			endV, err := e.eval(clk, fr, params, st.End)
			if err != nil {
				return Value{}, false, err
			}
			stepV, err := e.eval(clk, fr, params, st.Step)
			if err != nil {
				return Value{}, false, err
			}
			step := stepV.AsInt()
			if step <= 0 {
				return Value{}, false, fmt.Errorf("exec: loop %q step %d", st.Name, step)
			}
			for iv := startV.AsInt(); iv < endV.AsInt(); iv += step {
				fr.regs[st.IVReg] = IntV(iv)
				clk.Advance(e.opt.ComputeOp) // loop control
				r, returned, err := e.block(clk, fr, params, st.Body)
				if err != nil {
					return Value{}, false, err
				}
				if returned {
					return r, true, nil
				}
			}

		case *ir.If:
			c, err := e.eval(clk, fr, params, st.Cond)
			if err != nil {
				return Value{}, false, err
			}
			body := st.Then
			if !c.Truthy() {
				body = st.Else
			}
			r, returned, err := e.block(clk, fr, params, body)
			if err != nil {
				return Value{}, false, err
			}
			if returned {
				return r, true, nil
			}

		case *ir.Call:
			callee, ok := e.p.Func(st.Callee)
			if !ok {
				return Value{}, false, fmt.Errorf("exec: call of unknown function %q", st.Callee)
			}
			args := make([]Value, len(st.Args))
			for i, a := range st.Args {
				v, err := e.eval(clk, fr, params, a)
				if err != nil {
					return Value{}, false, err
				}
				args[i] = v
			}
			var r Value
			var err error
			if st.Offload && e.remote == nil {
				r, err = e.offloadCall(clk, callee, args)
			} else {
				r, err = e.call(clk, callee, args)
			}
			if err != nil {
				return Value{}, false, err
			}
			if st.Dst >= 0 {
				fr.regs[st.Dst] = r
			}

		case *ir.Return:
			if st.Val == nil {
				return Value{}, true, nil
			}
			v, err := e.eval(clk, fr, params, st.Val)
			if err != nil {
				return Value{}, false, err
			}
			return v, true, nil

		case *ir.Prefetch:
			if e.remote != nil {
				break // far-node code needs no prefetch
			}
			idx, err := e.eval(clk, fr, params, st.Index)
			if err != nil {
				return Value{}, false, err
			}
			f, err := e.field(st.Obj, st.Field)
			if err != nil {
				return Value{}, false, err
			}
			e.yield()
			t0 := clk.Now()
			if err := e.be.Prefetch(clk, st.Obj, idx.AsInt(), f); err != nil {
				return Value{}, false, err
			}
			e.chargeRuntime(fr, clk.Now().Sub(t0))

		case *ir.BatchPrefetch:
			if e.remote != nil {
				break
			}
			entries := make([]rt.BatchEntry, 0, len(st.Entries))
			for _, pe := range st.Entries {
				idx, err := e.eval(clk, fr, params, pe.Index)
				if err != nil {
					return Value{}, false, err
				}
				f, err := e.field(pe.Obj, pe.Field)
				if err != nil {
					return Value{}, false, err
				}
				entries = append(entries, rt.BatchEntry{Obj: pe.Obj, Elem: idx.AsInt(), Field: f})
			}
			e.yield()
			t0 := clk.Now()
			if err := e.be.PrefetchBatch(clk, entries); err != nil {
				return Value{}, false, err
			}
			e.chargeRuntime(fr, clk.Now().Sub(t0))

		case *ir.Evict:
			if e.remote != nil {
				break
			}
			idx, err := e.eval(clk, fr, params, st.Index)
			if err != nil {
				return Value{}, false, err
			}
			e.yield()
			t0 := clk.Now()
			if err := e.be.EvictHint(clk, st.Obj, idx.AsInt()); err != nil {
				return Value{}, false, err
			}
			e.chargeRuntime(fr, clk.Now().Sub(t0))

		case *ir.Fence:
			if e.remote != nil {
				break
			}
			e.yield()
			t0 := clk.Now()
			e.be.Fence(clk)
			e.chargeRuntime(fr, clk.Now().Sub(t0))

		case *ir.Release:
			if e.remote != nil {
				break
			}
			e.yield()
			t0 := clk.Now()
			if err := e.be.Release(clk, st.Obj); err != nil {
				return Value{}, false, err
			}
			e.chargeRuntime(fr, clk.Now().Sub(t0))

		case *ir.Intrinsic:
			if err := e.intrinsic(clk, fr, params, st); err != nil {
				return Value{}, false, err
			}

		default:
			return Value{}, false, fmt.Errorf("exec: unknown statement %T", s)
		}
	}
	return Value{}, false, nil
}

// access routes a scalar access to the local backend or, in offloaded mode,
// directly to far-node memory (charging the remote clock a native access).
func (e *Executor) access(clk *sim.Clock, fr *frame, obj string, elem int64, f ir.Field, buf []byte, write bool, opts rt.AccessOpts) error {
	if e.remote != nil {
		e.yield()                    // scattered sub-offloads interleave at access boundaries
		clk.Advance(e.opt.ComputeOp) // native far-node access
		return e.remote.RemoteAccess(clk, obj, elem, f, buf, write)
	}
	e.yield()
	t0 := clk.Now()
	var m0 int64
	if e.misses != nil {
		m0 = e.misses.MissCount()
	}
	err := e.be.Access(clk, obj, elem, f, buf, write, opts)
	e.chargeRuntime(fr, clk.Now().Sub(t0))
	if e.misses != nil {
		e.opt.Collector.AccessEvent(fr.fn.Name, e.misses.MissCount() > m0)
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
	if e.opt.Collector != nil && d > 0 {
		e.opt.Collector.RuntimeTime(fr.fn.Name, d)
	}
}

// field resolves obj.field with caching.
func (e *Executor) field(obj, field string) (ir.Field, error) {
	key := obj + "\x00" + field
	if f, ok := e.fields[key]; ok {
		return f, nil
	}
	o, ok := e.p.Object(obj)
	if !ok {
		return ir.Field{}, fmt.Errorf("exec: unknown object %q", obj)
	}
	f, ok := o.FieldByName(field)
	if !ok {
		return ir.Field{}, fmt.Errorf("exec: object %q has no field %q", obj, field)
	}
	e.fields[key] = f
	return f, nil
}

// eval computes an expression, charging one ComputeOp per operator node.
func (e *Executor) eval(clk *sim.Clock, fr *frame, params map[string]Value, x ir.Expr) (Value, error) {
	switch t := x.(type) {
	case *ir.Const:
		return IntV(t.I), nil
	case *ir.ConstF:
		return FloatV(t.F), nil
	case *ir.Reg:
		return fr.regs[t.ID], nil
	case *ir.Param:
		v, ok := params[t.Name]
		if !ok {
			return Value{}, fmt.Errorf("exec: unbound parameter %q in %q", t.Name, fr.fn.Name)
		}
		return v, nil
	case *ir.Bin:
		a, err := e.eval(clk, fr, params, t.A)
		if err != nil {
			return Value{}, err
		}
		b, err := e.eval(clk, fr, params, t.B)
		if err != nil {
			return Value{}, err
		}
		clk.Advance(e.opt.ComputeOp)
		return applyBin(t.Op, a, b)
	case *ir.Un:
		a, err := e.eval(clk, fr, params, t.A)
		if err != nil {
			return Value{}, err
		}
		clk.Advance(e.opt.ComputeOp)
		return applyUn(t.Op, a)
	default:
		return Value{}, fmt.Errorf("exec: unknown expression %T", x)
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
