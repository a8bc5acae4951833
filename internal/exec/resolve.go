package exec

import (
	"cmp"
	"fmt"

	"mira/internal/ir"
	"mira/internal/rt"
	"mira/internal/sim"
)

// This file is the resolve step: everything about a function body that is
// fixed per program — which ir.Field an access names and how its bytes become
// a Value, which args slot a parameter reads, which *ir.Func a call reaches,
// what the backend calls the object — is looked up once, when the body is
// first called, its expressions are compiled to closures (compile.go), and
// the interpreter in exec.go runs the result. Resolved code is never written
// after it is built: the executor that built it and the offload children it
// spawns read the same nodes, and whatever an execution needs to scribble on
// (the float operands a tensor intrinsic computes on and moves through the
// bulk path, the batch-prefetch entries) lives on the Executor.
//
// Resolution never fails. A validated program resolves cleanly except for a
// field the scalar codec cannot carry; that error, like any other a node
// could not be resolved past (an unvalidated body naming an unknown object,
// field, function or parameter), is kept on the node and returned if and when
// the node executes, after the operands the tree walk used to evaluate first.

// handler is the optional backend capability that takes the name lookup off
// the access path: the backend resolves an object to a handle once and the
// executor presents the handle on every operation. The Mira runtime has it;
// a backend without it is driven by name, with identical results.
type handler interface {
	Handle(name string) (rt.Handle, bool)
	AccessH(clk *sim.Clock, h rt.Handle, elem int64, field ir.Field, buf []byte, write bool, opts rt.AccessOpts) error
	PrefetchH(clk *sim.Clock, h rt.Handle, elem int64, field ir.Field) error
	EvictHintH(clk *sim.Clock, h rt.Handle, elem int64) error
	BulkReadH(clk *sim.Clock, h rt.Handle, elem int64, buf []byte) error
	BulkWriteH(clk *sim.Clock, h rt.Handle, elem int64, buf []byte) error
	ReleaseH(clk *sim.Clock, h rt.Handle) error
}

// table memoises resolved function bodies for one executor and its offload
// children. Only the goroutine currently running the program touches it: the
// children either run inline (whole-call offload) or as sim.Scheduler threads,
// which hand control to one another and never run side by side.
type table struct {
	p     *ir.Program
	hb    handler // the executor's; nil: the backend is driven by name
	codes map[*ir.Func][]node
}

// resolve returns fn's resolved body, building it on first use.
func (t *table) resolve(fn *ir.Func) []node {
	if c, ok := t.codes[fn]; ok {
		return c
	}
	c := t.block(fn, fn.Body)
	t.codes[fn] = c
	return c
}

// opcode is a resolved statement's kind.
type opcode uint8

const (
	opAssign opcode = iota
	opLoad
	opStore
	opLoop
	opIf
	opCall
	opReturn
	opPrefetch
	opBatchPrefetch
	opGatherPrefetch
	opEvict
	opFence
	opRelease
	opIntrinsic
	opInvalid // a statement resolution could not make sense of; err says why
)

// node is one resolved statement. Which fields mean what, by op:
//
//	opAssign         dst = a
//	opLoad           dst = acc[a]
//	opStore          acc[a] = b
//	opLoop           for dst = a; dst < b; dst += c { body }; name for errors
//	opIf             if a { body } else { els }
//	opCall           dst = call(...), dst < 0 for none
//	opReturn         return a (nil: no value)
//	opPrefetch       prefetch acc[a]
//	opBatchPrefetch  batch
//	opGatherPrefetch for j = a; j < b; j++ { gather's loads of src[j] }, one batch
//	opEvict          evict acc[a]
//	opRelease        release acc
//	opIntrinsic      intr
//	opInvalid        err
type node struct {
	op        opcode
	dst       int
	a, b, c   evalFn
	acc       *access
	body, els []node
	name      string
	call      *callSite
	batch     *batchSite
	gather    *gatherSite
	intr      *intrinsicSite
	err       error // opInvalid: returned when the node executes
}

// objRef is an object as the backend knows it: by handle when the backend
// hands them out and knows the object, by name otherwise (the by-name call
// then reports the unknown object exactly as it always did).
type objRef struct {
	name string
	h    rt.Handle
	byH  bool
}

// access is a resolved obj.field site.
type access struct {
	objRef
	field ir.Field
	codec scalar
	opts  rt.AccessOpts
	// err is why the site cannot execute: the object or field does not
	// exist, or (scalar sites only) the codec cannot carry the field.
	err error
}

type callSite struct {
	callee  *ir.Func
	args    []evalFn
	offload bool
}

// batchSite is a resolved BatchPrefetch: entries is the template (Obj, Field
// and H set, Elem zero) the executor copies into its scratch, idx[i] computes
// entry i's Elem, and errs — nil unless some entry failed to resolve — holds
// entry i's error.
type batchSite struct {
	idx     []evalFn
	entries []rt.BatchEntry
	errs    []error
}

// gatherSite is a resolved GatherPrefetch: per chain, the scalar access of
// its source field (native as the statement says) and the entry template of
// its target (Obj, Field and H set, Elem zero); err is the first chain that
// failed to resolve.
type gatherSite struct {
	src     []*access
	targets []rt.BatchEntry
	err     error
}

// tensor is a resolved ir.TensorRef.
type tensor struct {
	objRef
	off        evalFn
	rows, cols int64
}

func (t tensor) elems() int { return int(t.rows * t.cols) }

type intrinsicSite struct {
	kind      ir.IntrKind
	dst, a, b tensor
	ahead     []aheadRange
}

// aheadRange is a resolved ir.PrefetchRange.
type aheadRange struct {
	objRef
	off         evalFn
	elems, step int64
}

// block resolves stmts as part of fn's body (fn supplies the parameter
// slots). The scatter path hands it bodies that are not a whole function:
// ScatterPlan.Tail, and SubFunc's per-dispatch loops.
func (t *table) block(fn *ir.Func, stmts []ir.Stmt) []node {
	out := make([]node, len(stmts))
	for i, s := range stmts {
		out[i] = t.stmt(fn, s)
	}
	return out
}

func (t *table) stmt(fn *ir.Func, s ir.Stmt) node {
	switch st := s.(type) {
	case *ir.Assign:
		return node{op: opAssign, dst: st.Dst, a: t.expr(fn, st.Val)}
	case *ir.Load:
		acc := t.access(st.Obj, st.Field, true)
		acc.opts = rt.AccessOpts{Native: st.Native}
		return node{op: opLoad, dst: st.Dst, a: t.expr(fn, st.Index), acc: acc}
	case *ir.Store:
		acc := t.access(st.Obj, st.Field, true)
		acc.opts = rt.AccessOpts{Native: st.Native, NoFetch: st.NoFetch}
		return node{op: opStore, a: t.expr(fn, st.Index), b: t.expr(fn, st.Val), acc: acc}
	case *ir.Loop:
		return node{op: opLoop, dst: st.IVReg, name: st.Name,
			a: t.expr(fn, st.Start), b: t.expr(fn, st.End), c: t.expr(fn, st.Step),
			body: t.block(fn, st.Body)}
	case *ir.If:
		return node{op: opIf, a: t.expr(fn, st.Cond), body: t.block(fn, st.Then), els: t.block(fn, st.Else)}
	case *ir.Call:
		callee, ok := t.p.Func(st.Callee)
		if !ok {
			// The tree walk looked the callee up before its arguments.
			return node{op: opInvalid, err: fmt.Errorf("exec: call of unknown function %q", st.Callee)}
		}
		cs := &callSite{callee: callee, args: make([]evalFn, len(st.Args)), offload: st.Offload}
		for i, a := range st.Args {
			cs.args[i] = t.expr(fn, a)
		}
		return node{op: opCall, dst: st.Dst, call: cs}
	case *ir.Return:
		if st.Val == nil {
			return node{op: opReturn}
		}
		return node{op: opReturn, a: t.expr(fn, st.Val)}
	case *ir.Prefetch:
		return node{op: opPrefetch, a: t.expr(fn, st.Index), acc: t.access(st.Obj, st.Field, false)}
	case *ir.BatchPrefetch:
		b := &batchSite{idx: make([]evalFn, len(st.Entries)), entries: make([]rt.BatchEntry, len(st.Entries))}
		for i, pe := range st.Entries {
			b.idx[i] = t.expr(fn, pe.Index)
			acc := t.access(pe.Obj, pe.Field, false)
			b.entries[i] = rt.BatchEntry{Obj: pe.Obj, Field: acc.field, H: acc.h}
			if acc.err != nil {
				if b.errs == nil {
					b.errs = make([]error, len(st.Entries))
				}
				b.errs[i] = acc.err
			}
		}
		return node{op: opBatchPrefetch, batch: b}
	case *ir.GatherPrefetch:
		g := &gatherSite{}
		for _, c := range st.Chains {
			src := t.access(st.Src, c.SrcField, true)
			src.opts = rt.AccessOpts{Native: st.Native}
			tgt := t.access(c.Target, c.TargetField, false)
			g.src = append(g.src, src)
			g.targets = append(g.targets, rt.BatchEntry{Obj: c.Target, Field: tgt.field, H: tgt.h})
			g.err = cmp.Or(g.err, src.err, tgt.err)
		}
		return node{op: opGatherPrefetch, a: t.expr(fn, st.Lo), b: t.expr(fn, st.Hi), gather: g}
	case *ir.Evict:
		return node{op: opEvict, a: t.expr(fn, st.Index), acc: &access{objRef: t.ref(st.Obj)}}
	case *ir.Fence:
		return node{op: opFence}
	case *ir.Release:
		return node{op: opRelease, acc: &access{objRef: t.ref(st.Obj)}}
	case *ir.Intrinsic:
		site := &intrinsicSite{
			kind: st.Kind,
			dst:  t.tensor(fn, st.Dst),
			a:    t.tensor(fn, st.A),
			b:    t.tensor(fn, st.B),
		}
		if len(st.Ahead) > 0 {
			site.ahead = make([]aheadRange, len(st.Ahead))
			for i, r := range st.Ahead {
				site.ahead[i] = aheadRange{objRef: t.ref(r.Obj), off: t.expr(fn, r.Off), elems: r.Elems, step: r.Step}
			}
		}
		return node{op: opIntrinsic, intr: site}
	default:
		return node{op: opInvalid, err: fmt.Errorf("exec: unknown statement %T", s)}
	}
}

// ref resolves an object name to what the backend is called with.
func (t *table) ref(obj string) objRef {
	r := objRef{name: obj}
	if t.hb != nil {
		r.h, r.byH = t.hb.Handle(obj)
	}
	return r
}

// access resolves obj.field; scalar sites (Load, Store) also resolve the
// field's codec.
func (t *table) access(obj, field string, scalar bool) *access {
	a := &access{objRef: t.ref(obj)}
	o, ok := t.p.Object(obj)
	if !ok {
		a.err = fmt.Errorf("exec: unknown object %q", obj)
		return a
	}
	f, ok := o.FieldByName(field)
	if !ok {
		a.err = fmt.Errorf("exec: object %q has no field %q", obj, field)
		return a
	}
	a.field = f
	if scalar {
		a.codec, a.err = codecOf(f)
	}
	return a
}

func (t *table) tensor(fn *ir.Func, r ir.TensorRef) tensor {
	if r.Obj == "" {
		return tensor{} // unary intrinsics leave B (and IntrZero A) empty
	}
	return tensor{objRef: t.ref(r.Obj), off: t.expr(fn, r.Off), rows: r.Rows, cols: r.Cols}
}
