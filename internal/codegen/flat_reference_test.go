package codegen

import (
	"fmt"

	"mira/internal/ir"
)

// refApply is Apply as it was before tile nests: every instrumented loop
// stays flat and evaluates its line-boundary guards on every element. It is
// the oracle the tile nest is checked against.
func refApply(p *ir.Program, plan *Plan) (*ir.Program, error) {
	out := ir.Clone(p)
	for _, fn := range out.Funcs {
		if plan.FuseLoops {
			fn.Body = fuseBlocks(fn.Body)
		}
		if plan.Offload[fn.Name] {
			continue
		}
		g := &gen{p: out, fn: fn, plan: plan}
		refBlock(g, fn.Body)
		if len(plan.Offload) > 0 {
			fn.Body = markOffloads(fn.Body, plan.Offload)
		}
		for _, obj := range plan.ReleaseAfter[fn.Name] {
			if n := len(fn.Body); n > 0 {
				if _, isRet := fn.Body[n-1].(*ir.Return); isRet {
					fn.Body = append(fn.Body[:n-1], &ir.Release{Obj: obj}, fn.Body[n-1])
					continue
				}
			}
			fn.Body = append(fn.Body, &ir.Release{Obj: obj})
		}
	}
	if err := ir.Validate(out); err != nil {
		return nil, fmt.Errorf("codegen: transformed program invalid: %w", err)
	}
	return out, nil
}

func refBlock(g *gen, body []ir.Stmt) {
	for _, s := range body {
		switch st := s.(type) {
		case *ir.Loop:
			refInstrumentLoop(g, st)
			refBlock(g, st.Body)
		case *ir.If:
			refBlock(g, st.Then)
			refBlock(g, st.Else)
		case *ir.Load:
			if op := g.plan.Objects[st.Obj]; op != nil && op.Native {
				st.Native = true
			}
		case *ir.Store:
			if op := g.plan.Objects[st.Obj]; op != nil {
				if op.Native {
					st.Native = true
				}
				if op.NoFetch {
					st.NoFetch = true
				}
			}
		}
	}
}

// refInstrumentLoop inserts prefetches at the top of the body and eviction
// hints at the bottom, per the object plans.
func refInstrumentLoop(g *gen, l *ir.Loop) {
	accesses := g.collectAccesses(l)
	if len(accesses) == 0 {
		return
	}
	iv := func() ir.Expr { return &ir.Reg{ID: l.IVReg} }

	var pre []ir.Stmt
	var post []ir.Stmt

	var seqPF []*loopAccess
	if !g.plan.SuppressPrefetchStmts {
		for _, a := range accesses {
			if a.plan.PrefetchDistance > 0 && isSeqLike(a.plan.Pattern) {
				seqPF = append(seqPF, a)
			}
		}
	}
	if len(seqPF) >= 2 && g.plan.BatchFusedPrefetch && sameLineElems(seqPF) {
		d := seqPF[0].plan.PrefetchDistance
		le := seqPF[0].plan.LineElems
		b := batchDepth(seqPF)
		var entries []ir.PrefetchRef
		for k := int64(0); k < b; k++ {
			for _, a := range seqPF {
				entries = append(entries, ir.PrefetchRef{Obj: a.obj, Index: ir.Add(iv(), ir.C(d+k*le)), Field: a.field})
			}
		}
		if p := priming(iv, l.Start, d, le, b, seqPF); p != nil {
			pre = append(pre, p)
		}
		pre = append(pre, guarded(iv, d, b*le, &ir.BatchPrefetch{Entries: entries}))
	} else {
		for _, a := range seqPF {
			d, le := a.plan.PrefetchDistance, a.plan.LineElems
			if b := a.plan.BatchLines; b >= 2 && le >= 1 {
				entries := make([]ir.PrefetchRef, b)
				for k := int64(0); k < b; k++ {
					entries[k] = ir.PrefetchRef{Obj: a.obj, Index: ir.Add(iv(), ir.C(d+k*le)), Field: a.field}
				}
				if p := priming(iv, l.Start, d, le, b, []*loopAccess{a}); p != nil {
					pre = append(pre, p)
				}
				pre = append(pre, guarded(iv, d, b*le, &ir.BatchPrefetch{Entries: entries}))
				continue
			}
			pf := &ir.Prefetch{Obj: a.obj, Index: ir.Add(iv(), ir.C(d)), Field: a.field}
			pre = append(pre, guarded(iv, d, le, pf))
		}
	}

	if !g.plan.SuppressPrefetchStmts {
		pre = append(pre, refChains(g, l, accesses)...)
	}

	for _, a := range accesses {
		if a.plan.EvictLag <= 0 || !isSeqLike(a.plan.Pattern) {
			continue
		}
		lag := a.plan.EvictLag
		ev := &ir.Evict{Obj: a.obj, Index: ir.Sub(iv(), ir.C(lag))}
		cond := ir.Ge(iv(), ir.C(lag))
		if a.plan.LineElems > 1 {
			cond = ir.And(cond, ir.Eq(ir.Mod(ir.Sub(iv(), ir.C(lag)), ir.C(a.plan.LineElems)), ir.C(0)))
		}
		post = append(post, &ir.If{Cond: cond, Then: []ir.Stmt{ev}})
	}

	if len(pre) > 0 || len(post) > 0 {
		l.Body = append(append(pre, l.Body...), post...)
	}
}
