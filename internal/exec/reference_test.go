package exec

// The tree-walking interpreter this package ran until the resolve step
// replaced it, kept verbatim as the oracle the resolved interpreter is
// compared against (oracle_test.go): it walks ir.Stmt/ir.Expr directly,
// looks fields up by "obj\x00field", binds parameters in a map per call and
// reaches the backend and the collector by name only.

import (
	"encoding/binary"
	"fmt"
	"math"

	"mira/internal/analysis"
	"mira/internal/ir"
	"mira/internal/offload"
	"mira/internal/rt"
	"mira/internal/sim"
)

// refExecutor interprets one program over one backend.
type refExecutor struct {
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

// newRef builds a reference executor for p over be.
func newRef(p *ir.Program, be Backend, opt Options) (*refExecutor, error) {
	if err := ir.Validate(p); err != nil {
		return nil, err
	}
	if opt.ComputeOp == 0 {
		opt.ComputeOp = DefaultOptions().ComputeOp
	}
	if opt.FloatOp == 0 {
		opt.FloatOp = DefaultOptions().FloatOp
	}
	e := &refExecutor{p: p, be: be, opt: opt, fields: make(map[string]ir.Field)}
	if opt.Collector != nil {
		if mc, ok := be.(missCounter); ok {
			e.misses = mc
		}
	}
	return e, nil
}

// Run executes the entry function and returns its result.
func (e *refExecutor) Run(clk *sim.Clock) (Value, error) {
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
type refFrame struct {
	fn   *ir.Func
	regs []Value
}

// call runs fn with args, recording its profile.
func (e *refExecutor) call(clk *sim.Clock, fn *ir.Func, args []Value) (Value, error) {
	if e.depth >= maxCallDepth {
		return Value{}, fmt.Errorf("exec: call depth exceeds %d at %q", maxCallDepth, fn.Name)
	}
	e.depth++
	defer func() { e.depth-- }()

	fr := &refFrame{fn: fn, regs: make([]Value, fn.NumRegs)}
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
func (e *refExecutor) block(clk *sim.Clock, fr *refFrame, params map[string]Value, stmts []ir.Stmt) (ret Value, returned bool, err error) {
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

		case *ir.GatherPrefetch:
			// The loop the gather stands for, its prefetches posted as
			// one batch.
			if e.remote != nil {
				break
			}
			lo, err := e.eval(clk, fr, params, st.Lo)
			if err != nil {
				return Value{}, false, err
			}
			hi, err := e.eval(clk, fr, params, st.Hi)
			if err != nil {
				return Value{}, false, err
			}
			var entries []rt.BatchEntry
			for j := lo.AsInt(); j < hi.AsInt(); j++ {
				clk.Advance(e.opt.ComputeOp)
				for _, c := range st.Chains {
					f, err := e.field(st.Src, c.SrcField)
					if err != nil {
						return Value{}, false, err
					}
					buf := e.buf[:f.Bytes]
					if err := e.access(clk, fr, st.Src, j, f, buf, false,
						rt.AccessOpts{Native: st.Native}); err != nil {
						return Value{}, false, err
					}
					v, err := decodeField(f, buf)
					if err != nil {
						return Value{}, false, err
					}
					tf, err := e.field(c.Target, "")
					if err != nil {
						return Value{}, false, err
					}
					entries = append(entries, rt.BatchEntry{Obj: c.Target, Elem: v.AsInt(), Field: tf})
				}
			}
			if len(entries) > 0 {
				e.yield()
				t0 := clk.Now()
				if err := e.be.PrefetchBatch(clk, entries); err != nil {
					return Value{}, false, err
				}
				e.chargeRuntime(fr, clk.Now().Sub(t0))
			}

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
func (e *refExecutor) access(clk *sim.Clock, fr *refFrame, obj string, elem int64, f ir.Field, buf []byte, write bool, opts rt.AccessOpts) error {
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
func (e *refExecutor) yield() {
	if e.opt.Yield != nil {
		e.opt.Yield()
	}
}

// chargeRuntime attributes backend-internal time to the current function.
func (e *refExecutor) chargeRuntime(fr *refFrame, d sim.Duration) {
	if e.opt.Collector != nil && d > 0 {
		e.opt.Collector.RuntimeTime(fr.fn.Name, d)
	}
}

// field resolves obj.field with caching.
func (e *refExecutor) field(obj, field string) (ir.Field, error) {
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
func (e *refExecutor) eval(clk *sim.Clock, fr *refFrame, params map[string]Value, x ir.Expr) (Value, error) {
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

// ahead prefetches the next intrinsic's operands, one entry per line or
// page, in doorbells of at most 16 entries.
func (e *refExecutor) ahead(clk *sim.Clock, fr *refFrame, params map[string]Value, st *ir.Intrinsic) error {
	if e.remote != nil {
		return nil
	}
	var entries []rt.BatchEntry
	post := func() error {
		if len(entries) == 0 {
			return nil
		}
		e.yield()
		t0 := clk.Now()
		if err := e.be.PrefetchBatch(clk, entries); err != nil {
			return err
		}
		e.chargeRuntime(fr, clk.Now().Sub(t0))
		entries = nil
		return nil
	}
	for _, r := range st.Ahead {
		off, err := e.eval(clk, fr, params, r.Off)
		if err != nil {
			return err
		}
		lo := off.AsInt()
		for k := lo / r.Step; k*r.Step < lo+r.Elems; k++ {
			if len(entries) == 16 {
				if err := post(); err != nil {
					return err
				}
			}
			entries = append(entries, rt.BatchEntry{Obj: r.Obj, Elem: max(lo, k*r.Step)})
		}
	}
	return post()
}

// intrinsic executes one tensor operation: matrices stream through the
// backend's bulk path (so they exercise the cache sections exactly like
// scalar code does) and the arithmetic itself runs natively, charged per
// floating-point operation.
func (e *refExecutor) intrinsic(clk *sim.Clock, fr *refFrame, params map[string]Value, st *ir.Intrinsic) error {
	switch st.Kind {
	case ir.IntrMatMul:
		a, err := e.readMatrix(clk, fr, params, st.A)
		if err != nil {
			return err
		}
		b, err := e.readMatrix(clk, fr, params, st.B)
		if err != nil {
			return err
		}
		c, err := e.readMatrix(clk, fr, params, st.Dst)
		if err != nil {
			return err
		}
		if err := e.ahead(clk, fr, params, st); err != nil {
			return err
		}
		m, k, n := int(st.A.Rows), int(st.A.Cols), int(st.B.Cols)
		for i := 0; i < m; i++ {
			for kk := 0; kk < k; kk++ {
				av := a[i*k+kk]
				if av == 0 {
					continue
				}
				row := b[kk*n : (kk+1)*n]
				out := c[i*n : (i+1)*n]
				for j := range row {
					out[j] += av * row[j]
				}
			}
		}
		clk.Advance(e.opt.FloatOp * sim.Duration(2*m*n*k))
		return e.writeMatrix(clk, fr, params, st.Dst, c)

	case ir.IntrMatMulT:
		a, err := e.readMatrix(clk, fr, params, st.A)
		if err != nil {
			return err
		}
		b, err := e.readMatrix(clk, fr, params, st.B)
		if err != nil {
			return err
		}
		c, err := e.readMatrix(clk, fr, params, st.Dst)
		if err != nil {
			return err
		}
		if err := e.ahead(clk, fr, params, st); err != nil {
			return err
		}
		m, k, n := int(st.A.Rows), int(st.A.Cols), int(st.B.Rows)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var acc float64
				ar := a[i*k : (i+1)*k]
				br := b[j*k : (j+1)*k]
				for kk := range ar {
					acc += ar[kk] * br[kk]
				}
				c[i*n+j] += acc
			}
		}
		clk.Advance(e.opt.FloatOp * sim.Duration(2*m*n*k))
		return e.writeMatrix(clk, fr, params, st.Dst, c)

	case ir.IntrAdd:
		a, err := e.readMatrix(clk, fr, params, st.A)
		if err != nil {
			return err
		}
		b, err := e.readMatrix(clk, fr, params, st.B)
		if err != nil {
			return err
		}
		if err := e.ahead(clk, fr, params, st); err != nil {
			return err
		}
		if len(a) != len(b) || st.Dst.Elems() != st.A.Elems() {
			return fmt.Errorf("exec: add shape mismatch")
		}
		out := make([]float64, len(a))
		for i := range a {
			out[i] = a[i] + b[i]
		}
		clk.Advance(e.opt.FloatOp * sim.Duration(len(a)))
		return e.writeMatrix(clk, fr, params, st.Dst, out)

	case ir.IntrLayerNorm:
		a, err := e.readMatrix(clk, fr, params, st.A)
		if err != nil {
			return err
		}
		if err := e.ahead(clk, fr, params, st); err != nil {
			return err
		}
		rows, cols := int(st.A.Rows), int(st.A.Cols)
		out := make([]float64, len(a))
		for i := 0; i < rows; i++ {
			row := a[i*cols : (i+1)*cols]
			var mean float64
			for _, v := range row {
				mean += v
			}
			mean /= float64(cols)
			var variance float64
			for _, v := range row {
				d := v - mean
				variance += d * d
			}
			variance /= float64(cols)
			inv := 1 / math.Sqrt(variance+1e-5)
			for j, v := range row {
				out[i*cols+j] = (v - mean) * inv
			}
		}
		clk.Advance(e.opt.FloatOp * sim.Duration(8*len(a)))
		return e.writeMatrix(clk, fr, params, st.Dst, out)

	case ir.IntrSoftmax:
		a, err := e.readMatrix(clk, fr, params, st.A)
		if err != nil {
			return err
		}
		if err := e.ahead(clk, fr, params, st); err != nil {
			return err
		}
		rows, cols := int(st.A.Rows), int(st.A.Cols)
		out := make([]float64, len(a))
		for i := 0; i < rows; i++ {
			row := a[i*cols : (i+1)*cols]
			maxV := math.Inf(-1)
			for _, v := range row {
				if v > maxV {
					maxV = v
				}
			}
			var sum float64
			for j, v := range row {
				ev := math.Exp(v - maxV)
				out[i*cols+j] = ev
				sum += ev
			}
			for j := range row {
				out[i*cols+j] /= sum
			}
		}
		clk.Advance(e.opt.FloatOp * sim.Duration(6*len(a)))
		return e.writeMatrix(clk, fr, params, st.Dst, out)

	case ir.IntrGelu:
		a, err := e.readMatrix(clk, fr, params, st.A)
		if err != nil {
			return err
		}
		if err := e.ahead(clk, fr, params, st); err != nil {
			return err
		}
		out := make([]float64, len(a))
		const c0 = 0.7978845608028654 // sqrt(2/pi)
		for i, v := range a {
			out[i] = 0.5 * v * (1 + math.Tanh(c0*(v+0.044715*v*v*v)))
		}
		clk.Advance(e.opt.FloatOp * sim.Duration(8*len(a)))
		return e.writeMatrix(clk, fr, params, st.Dst, out)

	case ir.IntrCopy:
		a, err := e.readMatrix(clk, fr, params, st.A)
		if err != nil {
			return err
		}
		if err := e.ahead(clk, fr, params, st); err != nil {
			return err
		}
		return e.writeMatrix(clk, fr, params, st.Dst, a)

	case ir.IntrZero:
		if err := e.ahead(clk, fr, params, st); err != nil {
			return err
		}
		return e.writeMatrix(clk, fr, params, st.Dst, make([]float64, st.Dst.Elems()))

	default:
		return fmt.Errorf("exec: unknown intrinsic %v", st.Kind)
	}
}

// readMatrix pulls a tensor view into a float slice through the bulk path.
func (e *refExecutor) readMatrix(clk *sim.Clock, fr *refFrame, params map[string]Value, t ir.TensorRef) ([]float64, error) {
	off, err := e.eval(clk, fr, params, t.Off)
	if err != nil {
		return nil, err
	}
	n := int(t.Elems())
	buf := e.staging(n * 8)
	if err := e.bulk(clk, fr, t.Obj, off.AsInt(), buf, false); err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return out, nil
}

// writeMatrix pushes a float slice back through the bulk path.
func (e *refExecutor) writeMatrix(clk *sim.Clock, fr *refFrame, params map[string]Value, t ir.TensorRef, vals []float64) error {
	off, err := e.eval(clk, fr, params, t.Off)
	if err != nil {
		return err
	}
	if int64(len(vals)) != t.Elems() {
		return fmt.Errorf("exec: writeMatrix size %d != %dx%d", len(vals), t.Rows, t.Cols)
	}
	buf := e.staging(len(vals) * 8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	return e.bulk(clk, fr, t.Obj, off.AsInt(), buf, true)
}

// staging returns the executor's bulk staging buffer sized to n bytes: the
// byte half of a tensor operand, dead as soon as readMatrix has decoded it or
// the bulk write has returned (the float halves stay separate allocations —
// two operands are live together). One Executor is one simulated thread's
// one request (session.exec), so the scratch needs no locking.
func (e *refExecutor) staging(n int) []byte {
	if cap(e.stage) < n {
		e.stage = make([]byte, n)
	}
	return e.stage[:n]
}

// bulk routes a bulk transfer locally or, in offloaded mode, to far-node
// memory.
func (e *refExecutor) bulk(clk *sim.Clock, fr *refFrame, obj string, elem int64, buf []byte, write bool) error {
	if e.remote != nil {
		e.yield()
		clk.Advance(e.opt.ComputeOp * sim.Duration(len(buf)/64+1))
		return e.remote.RemoteBulk(clk, obj, elem, buf, write)
	}
	e.yield()
	t0 := clk.Now()
	var err error
	if write {
		err = e.be.BulkWrite(clk, obj, elem, buf)
	} else {
		err = e.be.BulkRead(clk, obj, elem, buf)
	}
	e.chargeRuntime(fr, clk.Now().Sub(t0))
	return err
}

// offloadCall executes fn on the far-memory node (§4.8): flush the cached
// state of every far object the function touches, ship the scalar arguments
// over, run the body against far-node memory on the far CPU, and ship the
// result back.
//
// When the backend exposes a scatter-gather engine (cluster mode) and the
// function fits the scatter shape, the call is split into per-node
// sub-offloads running in parallel against the stripe replicas each node
// owns. Otherwise the legacy whole-call RPC path below runs: the remote
// body is measured on its own clock and the local clock is charged the
// full RPC.
func (e *refExecutor) offloadCall(clk *sim.Clock, fn *ir.Func, args []Value) (Value, error) {
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
	remoteExec := &refExecutor{
		p:      e.p,
		be:     e.be,
		opt:    Options{ComputeOp: e.opt.ComputeOp, FloatOp: e.opt.FloatOp},
		fields: e.fields,
		remote: renv,
	}
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

// scatterCall tries the scatter-gather path: recognize the function's
// reduction/map shape, partition the driving index range by placement, run
// per-node sub-offloads in virtual-time parallel, combine the partial
// accumulators, and execute the tail (constant-indexed result stores)
// locally behind a fence. handled=false means the caller should fall back
// to the legacy whole-call RPC.
func (e *refExecutor) scatterCall(clk *sim.Clock, fn *ir.Func, args []Value) (Value, bool, error) {
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
	lo, ok := evalBound(plan.Lo, fn, args)
	if !ok {
		return Value{}, false, nil
	}
	hi, ok := evalBound(plan.Hi, fn, args)
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
		sub := &refExecutor{
			p:  e.p,
			be: e.be,
			opt: Options{
				ComputeOp: sim.Duration(float64(e.opt.ComputeOp) * slow),
				FloatOp:   sim.Duration(float64(e.opt.FloatOp) * slow),
				Yield:     yield,
			},
			fields: e.fields,
			remote: scatterEnv{env: env},
		}
		ret, err := sub.call(rclk, sfn, args)
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
	fr := &refFrame{fn: fn, regs: make([]Value, fn.NumRegs)}
	fr.regs[plan.AccReg] = acc
	params := make(map[string]Value, len(args))
	for i, name := range fn.Params {
		params[name] = args[i]
	}
	ret, returned, err := e.block(clk, fr, params, plan.Tail)
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

// evalBound resolves a scatter bound (constant or scalar parameter).
func evalBound(x ir.Expr, fn *ir.Func, args []Value) (int64, bool) {
	switch t := x.(type) {
	case *ir.Const:
		return t.I, true
	case *ir.Param:
		for i, name := range fn.Params {
			if name == t.Name {
				return args[i].AsInt(), true
			}
		}
	}
	return 0, false
}

// decodeField interprets buf (len == field.Bytes) as a Value.
func decodeField(f ir.Field, buf []byte) (Value, error) {
	if f.Float {
		if f.Bytes != 8 {
			return Value{}, fmt.Errorf("exec: float field %q must be 8 bytes, got %d", f.Name, f.Bytes)
		}
		return FloatV(math.Float64frombits(binary.LittleEndian.Uint64(buf))), nil
	}
	switch f.Bytes {
	case 1:
		return IntV(int64(int8(buf[0]))), nil
	case 2:
		return IntV(int64(int16(binary.LittleEndian.Uint16(buf)))), nil
	case 4:
		return IntV(int64(int32(binary.LittleEndian.Uint32(buf)))), nil
	case 8:
		return IntV(int64(binary.LittleEndian.Uint64(buf))), nil
	default:
		return Value{}, fmt.Errorf("exec: unsupported integer field width %d", f.Bytes)
	}
}

// encodeField writes v into buf (len == field.Bytes).
func encodeField(f ir.Field, v Value, buf []byte) error {
	if f.Float {
		if f.Bytes != 8 {
			return fmt.Errorf("exec: float field %q must be 8 bytes, got %d", f.Name, f.Bytes)
		}
		binary.LittleEndian.PutUint64(buf, math.Float64bits(v.AsFloat()))
		return nil
	}
	i := v.AsInt()
	switch f.Bytes {
	case 1:
		buf[0] = byte(i)
	case 2:
		binary.LittleEndian.PutUint16(buf, uint16(i))
	case 4:
		binary.LittleEndian.PutUint32(buf, uint32(i))
	case 8:
		binary.LittleEndian.PutUint64(buf, uint64(i))
	default:
		return fmt.Errorf("exec: unsupported integer field width %d", f.Bytes)
	}
	return nil
}
