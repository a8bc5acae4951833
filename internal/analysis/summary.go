package analysis

import (
	"fmt"
	"sort"

	"mira/internal/ir"
)

// Analyze runs the static analyses over the selected function scopes and
// objects. Empty funcs means every function; empty objs means every
// non-local object. Selected functions implicitly include their callees
// (§4.1).
func Analyze(p *ir.Program, funcs []string, objs []string) (*Report, error) {
	if err := ir.Validate(p); err != nil {
		return nil, err
	}
	funcSet := map[string]bool{}
	if len(funcs) == 0 {
		for _, f := range p.Funcs {
			funcSet[f.Name] = true
		}
	} else {
		for _, name := range funcs {
			f, ok := p.Func(name)
			if !ok {
				return nil, fmt.Errorf("analysis: unknown function %q", name)
			}
			addWithCallees(p, f, funcSet)
		}
	}
	objSet := map[string]bool{}
	if len(objs) == 0 {
		for _, o := range p.Objects {
			if !o.Local {
				objSet[o.Name] = true
			}
		}
	} else {
		for _, name := range objs {
			if _, ok := p.Object(name); !ok {
				return nil, fmt.Errorf("analysis: unknown object %q", name)
			}
			objSet[name] = true
		}
	}

	r := &Report{Funcs: map[string]*FuncReport{}}
	for _, f := range p.Funcs {
		if !funcSet[f.Name] {
			continue
		}
		fr := analyzeFunc(p, f, objSet)
		r.Funcs[f.Name] = fr
	}
	r.CallCounts = callCounts(p)
	return r, nil
}

// callCounts estimates dynamic invocations per function: the entry runs
// once; each call site contributes its enclosing nest's trip product times
// the caller's own count. Recursion is cut off by a visit guard; unknown
// trips count as 1 (underestimate, never fabricate).
func callCounts(p *ir.Program) map[string]int64 {
	counts := map[string]int64{p.Entry: 1}
	stack := map[string]bool{}
	var visit func(name string, mult int64)
	visit = func(name string, mult int64) {
		if stack[name] {
			return
		}
		stack[name] = true
		defer delete(stack, name)
		fn, ok := p.Func(name)
		if !ok {
			return
		}
		env := newEnv()
		var walk func(body []ir.Stmt, trip int64)
		walk = func(body []ir.Stmt, trip int64) {
			for _, s := range body {
				switch st := s.(type) {
				case *ir.Loop:
					w := &walker{p: p, env: env}
					t := w.tripOf(st)
					inner := trip
					if t > 0 {
						inner *= t
					}
					env.loops = append(env.loops, st)
					walk(st.Body, inner)
					env.loops = env.loops[:len(env.loops)-1]
				case *ir.If:
					walk(st.Then, trip)
					walk(st.Else, trip)
				case *ir.Call:
					counts[st.Callee] += trip
					visit(st.Callee, trip)
				}
			}
		}
		walk(fn.Body, mult)
	}
	visit(p.Entry, 1)
	return counts
}

// addWithCallees inserts f and every function it (transitively) calls.
func addWithCallees(p *ir.Program, f *ir.Func, set map[string]bool) {
	if set[f.Name] {
		return
	}
	set[f.Name] = true
	ir.Walk(f.Body, func(s ir.Stmt) bool {
		if c, ok := s.(*ir.Call); ok {
			if callee, ok := p.Func(c.Callee); ok {
				addWithCallees(p, callee, set)
			}
		}
		return true
	})
}

// walker carries per-function analysis state.
type walker struct {
	p       *ir.Program
	fn      *ir.Func
	objSet  map[string]bool
	env     *env
	fr      *FuncReport
	stmtIdx int
	// trip is the product of enclosing loops' trip counts; -1 when any
	// enclosing trip is statically unknown.
	trip int64
	// writesAllSeqWhole tracks, per object, whether every write so far
	// is a stride-1 whole-element store.
	writesAllSeqWhole map[string]bool
	// scanSites tracks, per object, the distinct innermost loops (by
	// IVReg) and intrinsic sites that traverse it.
	scanSites map[string]map[int]bool
}

func analyzeFunc(p *ir.Program, fn *ir.Func, objSet map[string]bool) *FuncReport {
	w := &walker{
		p:                 p,
		fn:                fn,
		objSet:            objSet,
		env:               newEnv(),
		fr:                &FuncReport{Name: fn.Name, Objects: map[string]*ObjectAccess{}},
		trip:              1,
		writesAllSeqWhole: map[string]bool{},
		scanSites:         map[string]map[int]bool{},
	}
	w.block(fn.Body)
	w.finish()
	detectFusion(p, fn, w.fr)
	detectChains(p, fn, w.fr)
	w.fr.OffloadSafe = fn.NoSharedWrites && !w.touchesLocalObjects()
	return w.fr
}

func (w *walker) touchesLocalObjects() bool {
	for name := range w.fr.Objects {
		if o, ok := w.p.Object(name); ok && o.Local {
			return true
		}
	}
	return false
}

// finish resolves aggregate facts that need the whole walk.
func (w *walker) finish() {
	for name, a := range w.fr.Objects {
		a.Scans = len(w.scanSites[name])
		a.SequentialWholeElementWrite = a.Writes > 0 && w.writesAllSeqWhole[name]
		o, _ := w.p.Object(name)
		if a.TripCount <= 0 || a.TripCount > o.Count {
			a.TripCount = o.Count
		}
		sort.Strings(a.Fields)
		// Accessed bytes per element: sum of distinct accessed
		// fields.
		seen := map[string]bool{}
		total := 0
		for _, fname := range a.Fields {
			if seen[fname] {
				continue
			}
			seen[fname] = true
			if f, ok := o.FieldByName(fname); ok {
				total += f.Bytes
			}
		}
		if total > o.ElemBytes {
			total = o.ElemBytes
		}
		a.AccessedBytes = total
		a.ElemBytes = o.ElemBytes
	}
}

func (w *walker) block(stmts []ir.Stmt) {
	for _, s := range stmts {
		w.stmtIdx++
		switch st := s.(type) {
		case *ir.Assign:
			aff := w.env.evalAffine(st.Val)
			switch {
			case aff.ok:
				w.env.regs[st.Dst] = regInfo{kind: regAffine, aff: aff}
			case aff.via != "":
				w.env.regs[st.Dst] = regInfo{kind: regLoaded, obj: aff.via}
			default:
				w.env.regs[st.Dst] = regInfo{}
			}
			w.fr.Ops += w.weightedOps(st.Val)

		case *ir.Load:
			w.access(st.Obj, st.Field, false, st.Index)
			w.env.regs[st.Dst] = regInfo{kind: regLoaded, obj: st.Obj}
			w.fr.Ops += w.weightedOps(st.Index) + w.tripWeight()

		case *ir.Store:
			w.access(st.Obj, st.Field, true, st.Index)
			w.fr.Ops += w.weightedOps(st.Index) + w.weightedOps(st.Val) + w.tripWeight()

		case *ir.Loop:
			w.fr.Ops += w.tripWeight() // loop control
			t := w.tripOf(st)
			outerTrip := w.trip
			if w.trip > 0 && t > 0 {
				w.trip *= t
			} else {
				w.trip = -1
			}
			w.env.loops = append(w.env.loops, st)
			w.env.regs[st.IVReg] = regInfo{kind: regIV}
			w.block(st.Body)
			w.env.loops = w.env.loops[:len(w.env.loops)-1]
			w.env.regs[st.IVReg] = regInfo{}
			w.trip = outerTrip

		case *ir.If:
			w.fr.Ops += w.weightedOps(st.Cond)
			w.block(st.Then)
			w.block(st.Else)
			// Conservatively forget registers assigned in either
			// branch.
			clobbered := map[int]bool{}
			collectAssigned(st.Then, clobbered)
			collectAssigned(st.Else, clobbered)
			for reg := range clobbered {
				w.env.regs[reg] = regInfo{}
			}

		case *ir.Call:
			// Callees are analyzed as their own scopes; the call
			// result is unknown.
			if st.Dst >= 0 {
				w.env.regs[st.Dst] = regInfo{}
			}

		case *ir.Return:
			if st.Val != nil {
				w.fr.Ops += w.weightedOps(st.Val)
			}

		case *ir.Intrinsic:
			w.intrinsicAccess(st) // its Ahead ranges are hints, as prefetches are

		case *ir.Prefetch, *ir.BatchPrefetch, *ir.GatherPrefetch, *ir.Evict, *ir.Fence:
			// Compiler-inserted operations carry no new program
			// facts.
		}
	}
}

func collectAssigned(stmts []ir.Stmt, out map[int]bool) {
	ir.Walk(stmts, func(s ir.Stmt) bool {
		switch st := s.(type) {
		case *ir.Assign:
			out[st.Dst] = true
		case *ir.Load:
			out[st.Dst] = true
		case *ir.Loop:
			out[st.IVReg] = true
		case *ir.Call:
			if st.Dst >= 0 {
				out[st.Dst] = true
			}
		}
		return true
	})
}

// tripWeight is the dynamic multiplier of the current nest (1 when
// unknown: better to underestimate ops than to fabricate).
func (w *walker) tripWeight() int64 {
	if w.trip <= 0 {
		return 1
	}
	return w.trip
}

func (w *walker) weightedOps(e ir.Expr) int64 {
	return int64(ir.ExprOps(e)) * w.tripWeight()
}

// tripOf statically evaluates a loop's trip count (-1 if unknown).
func (w *walker) tripOf(l *ir.Loop) int64 {
	s := w.env.evalAffine(l.Start)
	e := w.env.evalAffine(l.End)
	st := w.env.evalAffine(l.Step)
	if !s.isConst() || !e.isConst() || !st.isConst() || st.c <= 0 {
		return -1
	}
	if e.c <= s.c {
		return 0
	}
	return (e.c - s.c + st.c - 1) / st.c
}

// access records one static access site.
func (w *walker) access(obj, field string, write bool, index ir.Expr) {
	if !w.objSet[obj] {
		return
	}
	decl, _ := w.p.Object(obj)
	a := w.fr.Objects[obj]
	if a == nil {
		a = &ObjectAccess{Object: obj, FirstUse: w.stmtIdx}
		w.fr.Objects[obj] = a
		w.writesAllSeqWhole[obj] = true
	}
	a.LastUse = w.stmtIdx
	if write {
		a.Writes++
	} else {
		a.Reads++
	}
	a.Fields = mergeFields(a.Fields, []string{field})
	if len(w.env.loops) > 0 {
		if w.scanSites[obj] == nil {
			w.scanSites[obj] = map[int]bool{}
		}
		w.scanSites[obj][w.env.loops[len(w.env.loops)-1].IVReg] = true
	}

	pat, stride, via := w.classify(index)
	a.Pattern = worsePattern(a.Pattern, pat)
	if pat == PatternStrided {
		a.Stride = stride
	}
	if pat == PatternIndirect && a.IndirectVia == "" {
		a.IndirectVia = via
	}
	a.LastLoopSequential = pat == PatternSequential && len(w.env.loops) > 0

	if write && !(pat == PatternSequential && field == "") {
		w.writesAllSeqWhole[obj] = false
	}

	// Dynamic access estimate.
	t := w.tripWeight()
	fieldBytes := decl.ElemBytes
	if f, ok := decl.FieldByName(field); ok {
		fieldBytes = f.Bytes
	}
	add := t * int64(fieldBytes)
	if add > decl.SizeBytes() {
		add = decl.SizeBytes()
	}
	w.fr.BytesTouched += add
	if t > a.TripCount {
		a.TripCount = t
	}
}

// classify runs scalar evolution on an index expression under the current
// loop nest.
func (w *walker) classify(index ir.Expr) (Pattern, int64, string) {
	aff := w.env.evalAffine(index)
	if !aff.ok {
		if aff.via != "" {
			return PatternIndirect, 0, aff.via
		}
		return PatternRandom, 0, ""
	}
	// Find the deepest enclosing loop whose IV appears. The per-iteration
	// stride in elements is the IV's coefficient times the loop step: a
	// step-s loop indexing arr[i] advances exactly like a step-1 loop
	// indexing arr[i*s].
	for i := len(w.env.loops) - 1; i >= 0; i-- {
		l := w.env.loops[i]
		c := aff.coef[l.IVReg]
		if c == 0 {
			continue
		}
		if st := w.env.evalAffine(l.Step); st.ok && st.isConst() && st.c != 0 {
			c *= st.c
		}
		if c == 1 || c == -1 {
			return PatternSequential, c, ""
		}
		return PatternStrided, c, ""
	}
	return PatternInvariant, 0, ""
}

// intrinsicAccess records tensor-intrinsic accesses: the analyzer knows
// each kind reads its inputs and writes its destination sequentially in
// whole elements.
func (w *walker) intrinsicAccess(st *ir.Intrinsic) {
	rec := func(t ir.TensorRef, write bool) {
		if t.Obj == "" || !w.objSet[t.Obj] {
			return
		}
		decl, _ := w.p.Object(t.Obj)
		a := w.fr.Objects[t.Obj]
		if a == nil {
			a = &ObjectAccess{Object: t.Obj, FirstUse: w.stmtIdx}
			w.fr.Objects[t.Obj] = a
			w.writesAllSeqWhole[t.Obj] = true
		}
		a.LastUse = w.stmtIdx
		a.Pattern = worsePattern(a.Pattern, PatternSequential)
		a.Fields = mergeFields(a.Fields, []string{""})
		if w.scanSites[t.Obj] == nil {
			w.scanSites[t.Obj] = map[int]bool{}
		}
		// Each intrinsic statement is its own scan site.
		w.scanSites[t.Obj][-w.stmtIdx] = true
		if write {
			a.Writes++
		} else {
			a.Reads++
		}
		a.LastLoopSequential = true
		elems := t.Elems() * w.tripWeight()
		add := elems * int64(decl.ElemBytes)
		if add > decl.SizeBytes() {
			add = decl.SizeBytes()
		}
		w.fr.BytesTouched += add
		if elems > a.TripCount {
			a.TripCount = elems
		}
	}
	// Simultaneous operand footprint (co-residency requirement).
	var coRes int64
	for _, t := range []ir.TensorRef{st.Dst, st.A, st.B} {
		if t.Obj != "" {
			coRes += t.Elems() * 8
		}
	}
	if st.Kind == ir.IntrMatMul || st.Kind == ir.IntrMatMulT {
		coRes += st.Dst.Elems() * 8 // Dst is read and rewritten
	}
	markCoRes := func(t ir.TensorRef) {
		if t.Obj == "" || !w.objSet[t.Obj] {
			return
		}
		if a := w.fr.Objects[t.Obj]; a != nil && coRes > a.CoResidentBytes {
			a.CoResidentBytes = coRes
		}
	}
	defer func() {
		markCoRes(st.Dst)
		markCoRes(st.A)
		markCoRes(st.B)
	}()

	if st.A.Obj != "" {
		rec(st.A, false)
	}
	if st.B.Obj != "" {
		rec(st.B, false)
	}
	// MatMul accumulates into Dst (read-modify-write).
	if st.Kind == ir.IntrMatMul || st.Kind == ir.IntrMatMulT {
		rec(st.Dst, false)
	}
	rec(st.Dst, true)
	// FLOP estimate.
	var flops int64
	switch st.Kind {
	case ir.IntrMatMul, ir.IntrMatMulT:
		flops = 2 * st.Dst.Rows * st.Dst.Cols * st.A.Cols
	case ir.IntrAdd, ir.IntrCopy:
		flops = st.Dst.Elems()
	default:
		flops = 8 * st.Dst.Elems()
	}
	w.fr.Ops += flops * w.tripWeight()
}
