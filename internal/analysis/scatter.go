package analysis

import (
	"sort"

	"mira/internal/ir"
)

// ScatterPlan describes how an offload-safe function can be split into
// per-node sub-offloads: the body is a single counted reduction/map loop
// over a driving object, so disjoint index ranges of that loop can run on
// different cluster nodes and their partial results combine exactly.
//
// The recognized shape (after instrumentation is stripped) is
//
//	acc := <const>                       // plus other const inits
//	for iv := Lo; iv < Hi; iv++ {        // step 1
//	    ... loads / stores / temps ...
//	    acc = acc <op> <expr>            // exactly one accumulator
//	}
//	store result[<const>] = acc | const  // tail, runs on the caller
//	return acc | const | nothing
//
// with <op> one of +, min, max (integer-only, so partial combination is
// exact and byte-identical to sequential execution). Stores inside the loop
// must index with the raw induction variable, which keeps each sub-offload's
// write set disjoint and makes the staged commit idempotent.
type ScatterPlan struct {
	// Func is the analyzed function (unmodified).
	Func *ir.Func
	// Object is the driving object: the largest object accessed at the
	// raw induction variable, used for placement-aware partitioning.
	Object string
	// Lo and Hi are the loop bounds (each *ir.Const or *ir.Param).
	Lo, Hi ir.Expr
	// IVReg is the loop induction register.
	IVReg int
	// AccReg is the accumulator register.
	AccReg int
	// Op combines partial accumulators (OpAdd, OpMin, or OpMax).
	Op ir.BinOp
	// Init is the accumulator's initial value (0 for OpAdd).
	Init int64
	// Inits are the stripped pre-loop constant initializations.
	Inits []ir.Stmt
	// LoopName and LoopBody are the stripped loop's name and body; SubFunc
	// shares the body pointers (read-only at execution time).
	LoopName string
	LoopBody []ir.Stmt
	// Tail is the stripped post-loop suffix (constant-indexed stores of
	// the accumulator and an optional return); it runs on the caller after
	// partials are combined.
	Tail []ir.Stmt
}

// SubFunc builds the function one sub-offload executes: the constant inits,
// one loop per assigned [lo, hi) range, and a return of the accumulator.
// The tail is excluded — it is executed once by the caller after combining.
func (sp *ScatterPlan) SubFunc(ranges [][2]int64) *ir.Func {
	body := make([]ir.Stmt, 0, len(sp.Inits)+len(ranges)+1)
	body = append(body, sp.Inits...)
	for _, r := range ranges {
		body = append(body, &ir.Loop{
			Name:  sp.LoopName,
			IVReg: sp.IVReg,
			Start: &ir.Const{I: r[0]},
			End:   &ir.Const{I: r[1]},
			Step:  &ir.Const{I: 1},
			Body:  sp.LoopBody,
		})
	}
	body = append(body, &ir.Return{Val: &ir.Reg{ID: sp.AccReg}})
	return &ir.Func{
		Name:           sp.Func.Name + "#sub",
		Params:         sp.Func.Params,
		Body:           body,
		NumRegs:        sp.Func.NumRegs,
		NoSharedWrites: true,
	}
}

// AnalyzeScatter reports whether fn fits the scatter-gather shape and, if
// so, returns the partitioning plan. It tolerates codegen instrumentation
// (prefetches, fences, eviction hints) by stripping it first, so it works on
// both source programs and compiled ones.
func AnalyzeScatter(p *ir.Program, fn *ir.Func) (*ScatterPlan, bool) {
	body := stripInstrumentation(fn.Body)

	// Split body into const inits, one loop, and the tail.
	i := 0
	var inits []ir.Stmt
	for ; i < len(body); i++ {
		a, ok := body[i].(*ir.Assign)
		if !ok {
			break
		}
		if _, isConst := a.Val.(*ir.Const); !isConst {
			return nil, false
		}
		inits = append(inits, a)
	}
	if i >= len(body) {
		return nil, false
	}
	loop, ok := body[i].(*ir.Loop)
	if !ok {
		return nil, false
	}
	tail := body[i+1:]

	step, ok := loop.Step.(*ir.Const)
	if !ok || step.I != 1 {
		return nil, false
	}
	if !constOrParam(loop.Start) || !constOrParam(loop.End) {
		return nil, false
	}

	acc, op, okAcc := findAccumulator(loop.Body, loop.IVReg)
	if !okAcc {
		return nil, false
	}
	init, okInit := accInit(inits, acc)
	if !okInit || (op == ir.OpAdd && init != 0) {
		return nil, false
	}
	if !checkLoopBody(p, loop.Body, loop.IVReg, acc) {
		return nil, false
	}
	if !checkTemps(loop.Body, loop.IVReg, acc) {
		return nil, false
	}
	if !checkTail(tail, acc) {
		return nil, false
	}

	obj, okObj := drivingObject(p, loop.Body, loop.IVReg)
	if !okObj {
		return nil, false
	}

	return &ScatterPlan{
		Func:     fn,
		Object:   obj,
		Lo:       loop.Start,
		Hi:       loop.End,
		IVReg:    loop.IVReg,
		AccReg:   acc,
		Op:       op,
		Init:     init,
		Inits:    inits,
		LoopName: loop.Name,
		LoopBody: loop.Body,
		Tail:     tail,
	}, true
}

// stripInstrumentation folds codegen's tile nests back into the flat loops
// they were built from, removes codegen-inserted hints that do not affect
// values (prefetches, intrinsics' operands ahead, fences, eviction hints,
// releases), then dead loads whose destination register is never read, then
// conditionals emptied by the stripping. Loops keep their bodies stripped in
// place-order.
func stripInstrumentation(body []ir.Stmt) []ir.Stmt {
	out := stripHints(body)
	for {
		used := map[int]bool{}
		markReads(out, used)
		next := stripDead(out, used)
		if len(next) == len(out) && sameShape(next, out) {
			return next
		}
		out = next
	}
}

func stripHints(body []ir.Stmt) []ir.Stmt {
	out := make([]ir.Stmt, 0, len(body))
	for _, s := range body {
		switch st := s.(type) {
		case *ir.Prefetch, *ir.BatchPrefetch, *ir.GatherPrefetch, *ir.Evict, *ir.Fence, *ir.Release:
			continue
		case *ir.Intrinsic:
			cp := *st
			cp.Ahead = nil // the operands it prefetches ahead are a hint too
			out = append(out, &cp)
		case *ir.Loop:
			cp := *st
			if flat, guards, ok := ir.MatchTileNest(st); ok && onlyHints(guards) {
				cp = *flat
			}
			cp.Body = stripHints(cp.Body)
			out = append(out, &cp)
		case *ir.If:
			cp := *st
			cp.Then = stripHints(st.Then)
			cp.Else = stripHints(st.Else)
			out = append(out, &cp)
		default:
			out = append(out, s)
		}
	}
	return out
}

// onlyHints reports whether body is nothing but hints, possibly under
// conditionals — what a tile nest's per-tile guards are.
func onlyHints(body []ir.Stmt) bool {
	ok := true
	ir.Walk(body, func(s ir.Stmt) bool {
		switch s.(type) {
		case *ir.If, *ir.Prefetch, *ir.BatchPrefetch, *ir.GatherPrefetch, *ir.Evict, *ir.Fence, *ir.Release:
		default:
			ok = false
		}
		return ok
	})
	return ok
}

// markReads records every register read by expressions in body.
func markReads(body []ir.Stmt, used map[int]bool) {
	mark := func(e ir.Expr) {
		ir.WalkExpr(e, func(x ir.Expr) bool {
			if r, ok := x.(*ir.Reg); ok {
				used[r.ID] = true
			}
			return true
		})
	}
	ir.Walk(body, func(s ir.Stmt) bool {
		switch st := s.(type) {
		case *ir.Loop:
			mark(st.Start)
			mark(st.End)
			mark(st.Step)
		case *ir.Load:
			mark(st.Index)
		case *ir.Store:
			mark(st.Index)
			mark(st.Val)
		case *ir.Assign:
			mark(st.Val)
		case *ir.If:
			mark(st.Cond)
		case *ir.Call:
			for _, a := range st.Args {
				mark(a)
			}
		case *ir.Return:
			mark(st.Val)
		case *ir.Intrinsic:
			mark(st.Dst.Off)
			mark(st.A.Off)
			mark(st.B.Off)
		}
		return true
	})
}

func stripDead(body []ir.Stmt, used map[int]bool) []ir.Stmt {
	out := make([]ir.Stmt, 0, len(body))
	for _, s := range body {
		switch st := s.(type) {
		case *ir.Load:
			if !used[st.Dst] {
				continue
			}
			out = append(out, s)
		case *ir.Loop:
			cp := *st
			cp.Body = stripDead(st.Body, used)
			out = append(out, &cp)
		case *ir.If:
			cp := *st
			cp.Then = stripDead(st.Then, used)
			cp.Else = stripDead(st.Else, used)
			if len(cp.Then) == 0 && len(cp.Else) == 0 {
				continue
			}
			out = append(out, &cp)
		default:
			out = append(out, s)
		}
	}
	return out
}

// sameShape reports whether two stripped bodies have identical statement
// counts at every nesting level (used as the fixpoint test).
func sameShape(a, b []ir.Stmt) bool {
	na, nb := 0, 0
	ir.Walk(a, func(ir.Stmt) bool { na++; return true })
	ir.Walk(b, func(ir.Stmt) bool { nb++; return true })
	return na == nb
}

func constOrParam(e ir.Expr) bool {
	switch e.(type) {
	case *ir.Const, *ir.Param:
		return true
	}
	return false
}

// findAccumulator locates the single loop-carried register: every
// assignment of the form r = r <op> rhs (op in {+, min, max}, rhs free of
// r) marks r as an accumulator candidate. Exactly one such register must
// exist, all its updates must share one operator, and it must appear
// nowhere else in the loop body.
func findAccumulator(body []ir.Stmt, ivReg int) (acc int, op ir.BinOp, ok bool) {
	type cand struct {
		op    ir.BinOp
		count int
		bad   bool
	}
	cands := map[int]*cand{}
	ir.Walk(body, func(s ir.Stmt) bool {
		a, isAssign := s.(*ir.Assign)
		if !isAssign {
			return true
		}
		bin, isBin := a.Val.(*ir.Bin)
		shaped := false
		if isBin {
			if r, isReg := bin.A.(*ir.Reg); isReg && r.ID == a.Dst {
				switch bin.Op {
				case ir.OpAdd, ir.OpMin, ir.OpMax:
					if !readsReg(bin.B, a.Dst) {
						shaped = true
					}
				}
			}
		}
		c := cands[a.Dst]
		if c == nil {
			c = &cand{op: ir.OpAdd}
			cands[a.Dst] = c
		}
		if shaped {
			if c.count > 0 && c.op != bin.Op {
				c.bad = true
			}
			c.op = bin.Op
			c.count++
		} else {
			c.bad = true
		}
		return true
	})
	found := -1
	for r, c := range cands {
		if c.count == 0 {
			continue
		}
		if c.bad || r == ivReg {
			return 0, 0, false
		}
		if found >= 0 {
			return 0, 0, false
		}
		found = r
		op = c.op
	}
	if found < 0 {
		return 0, 0, false
	}
	// The accumulator may only be read in its own update position.
	badRead := false
	ir.Walk(body, func(s ir.Stmt) bool {
		switch st := s.(type) {
		case *ir.Load:
			if readsReg(st.Index, found) || st.Dst == found {
				badRead = true
			}
		case *ir.Store:
			if readsReg(st.Index, found) || readsReg(st.Val, found) {
				badRead = true
			}
		case *ir.Assign:
			if st.Dst == found {
				// update shape already verified; rhs checked above
				return true
			}
			if readsReg(st.Val, found) {
				badRead = true
			}
		case *ir.If:
			if readsReg(st.Cond, found) {
				badRead = true
			}
		case *ir.Loop:
			if readsReg(st.Start, found) || readsReg(st.End, found) || readsReg(st.Step, found) {
				badRead = true
			}
		}
		return true
	})
	if badRead {
		return 0, 0, false
	}
	return found, op, true
}

func readsReg(e ir.Expr, id int) bool {
	hit := false
	ir.WalkExpr(e, func(x ir.Expr) bool {
		if r, ok := x.(*ir.Reg); ok && r.ID == id {
			hit = true
		}
		return true
	})
	return hit
}

func accInit(inits []ir.Stmt, acc int) (int64, bool) {
	val, found := int64(0), false
	for _, s := range inits {
		a := s.(*ir.Assign)
		if a.Dst != acc {
			continue
		}
		c := a.Val.(*ir.Const)
		val, found = c.I, true
	}
	return val, found
}

// checkLoopBody validates statement kinds, write disjointness, and
// integer-only arithmetic inside the loop.
func checkLoopBody(p *ir.Program, body []ir.Stmt, ivReg, acc int) bool {
	loaded := map[string]bool{}
	stored := map[string]bool{}
	ok := true
	check := func(obj, field string) bool {
		o, found := p.Object(obj)
		if !found || o.Local {
			return false
		}
		f, fok := o.FieldByName(field)
		return fok && !f.Float
	}
	ir.Walk(body, func(s ir.Stmt) bool {
		switch st := s.(type) {
		case *ir.Load:
			if st.Dst == ivReg || !check(st.Obj, st.Field) || hasFloatConst(st.Index) {
				ok = false
			}
			loaded[st.Obj] = true
		case *ir.Store:
			// Raw-IV indexing keeps sub-offload write sets disjoint.
			if r, isReg := st.Index.(*ir.Reg); !isReg || r.ID != ivReg {
				ok = false
			}
			if !check(st.Obj, st.Field) || hasFloatConst(st.Val) {
				ok = false
			}
			stored[st.Obj] = true
		case *ir.Assign:
			if st.Dst == ivReg || hasFloatConst(st.Val) {
				ok = false
			}
		case *ir.If:
			if hasFloatConst(st.Cond) {
				ok = false
			}
		default:
			ok = false // nested loops, calls, intrinsics, returns, hints
			return false
		}
		return true
	})
	if !ok {
		return false
	}
	// An object both read and written in-loop must be read at the raw IV
	// too: same-element, same-iteration, so read-your-writes holds within
	// one sub-offload and never crosses range boundaries.
	for obj := range stored {
		if !loaded[obj] {
			continue
		}
		pure := true
		ir.Walk(body, func(s ir.Stmt) bool {
			if ld, isLoad := s.(*ir.Load); isLoad && ld.Obj == obj {
				if r, isReg := ld.Index.(*ir.Reg); !isReg || r.ID != ivReg {
					pure = false
				}
			}
			return true
		})
		if !pure {
			return false
		}
	}
	return true
}

func hasFloatConst(e ir.Expr) bool {
	hit := false
	ir.WalkExpr(e, func(x ir.Expr) bool {
		if _, isF := x.(*ir.ConstF); isF {
			hit = true
		}
		return true
	})
	return hit
}

// checkTemps verifies no register other than the accumulator is
// loop-carried: every temp read at the loop body's top level must be
// unconditionally defined earlier in the same iteration. Otherwise a
// sub-offload starting mid-range would observe a zero register where the
// sequential run carried a value from the previous iteration.
func checkTemps(body []ir.Stmt, ivReg, acc int) bool {
	defined := map[int]bool{ivReg: true, acc: true}
	readsOf := func(s ir.Stmt) map[int]bool {
		reads := map[int]bool{}
		mark := func(e ir.Expr) {
			ir.WalkExpr(e, func(x ir.Expr) bool {
				if r, isReg := x.(*ir.Reg); isReg {
					reads[r.ID] = true
				}
				return true
			})
		}
		ir.Walk([]ir.Stmt{s}, func(inner ir.Stmt) bool {
			switch st := inner.(type) {
			case *ir.Load:
				mark(st.Index)
			case *ir.Store:
				mark(st.Index)
				mark(st.Val)
			case *ir.Assign:
				if bin, isBin := st.Val.(*ir.Bin); isBin && st.Dst == acc {
					mark(bin.B) // skip the acc self-read
				} else {
					mark(st.Val)
				}
			case *ir.If:
				mark(st.Cond)
			}
			return true
		})
		return reads
	}
	for _, s := range body {
		for r := range readsOf(s) {
			if !defined[r] {
				return false
			}
		}
		switch st := s.(type) {
		case *ir.Load:
			defined[st.Dst] = true
		case *ir.Assign:
			defined[st.Dst] = true
		}
	}
	return true
}

// checkTail accepts constant-indexed stores of the accumulator (or a
// constant) and an optional trailing return of the same.
func checkTail(tail []ir.Stmt, acc int) bool {
	accOrConst := func(e ir.Expr) bool {
		switch x := e.(type) {
		case nil:
			return true
		case *ir.Const:
			return true
		case *ir.Reg:
			return x.ID == acc
		}
		return false
	}
	for i, s := range tail {
		switch st := s.(type) {
		case *ir.Store:
			if _, isConst := st.Index.(*ir.Const); !isConst || !accOrConst(st.Val) {
				return false
			}
		case *ir.Return:
			if i != len(tail)-1 || !accOrConst(st.Val) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// drivingObject picks the partitioning object: the largest object accessed
// at the raw induction variable (ties break on name).
func drivingObject(p *ir.Program, body []ir.Stmt, ivReg int) (string, bool) {
	seen := map[string]bool{}
	ir.Walk(body, func(s ir.Stmt) bool {
		var obj string
		var idx ir.Expr
		switch st := s.(type) {
		case *ir.Load:
			obj, idx = st.Obj, st.Index
		case *ir.Store:
			obj, idx = st.Obj, st.Index
		default:
			return true
		}
		if r, isReg := idx.(*ir.Reg); isReg && r.ID == ivReg {
			seen[obj] = true
		}
		return true
	})
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	best, bestSize := "", int64(-1)
	for _, n := range names {
		o, found := p.Object(n)
		if !found {
			continue
		}
		if o.SizeBytes() > bestSize {
			best, bestSize = n, o.SizeBytes()
		}
	}
	return best, best != ""
}
