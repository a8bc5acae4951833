package codegen

import "mira/internal/ir"

// refChains is the chained prefetch emission codegen used before chains were
// gathered (ir.GatherPrefetch), kept as the oracle the gather is checked
// against: on every iteration, for every chain site of every access, load
// src[i+D] and prefetch the target at that value, guarded by i+D < End. The
// plan's GatherWindow is ignored.
func refChains(g *gen, l *ir.Loop, accesses []*loopAccess) []ir.Stmt {
	iv := func() ir.Expr { return &ir.Reg{ID: l.IVReg} }
	var chains []ir.Stmt
	for _, a := range accesses {
		for _, ch := range a.chains {
			tplan := g.plan.Objects[ch.target]
			if tplan == nil || tplan.PrefetchDistance <= 0 || tplan.ChainedFrom != a.obj {
				continue
			}
			d := tplan.PrefetchDistance
			tmp := g.newReg()
			chainBody := []ir.Stmt{
				&ir.Load{Dst: tmp, Obj: a.obj, Index: ir.Add(iv(), ir.C(d)), Field: ch.srcField},
				&ir.Prefetch{Obj: ch.target, Index: &ir.Reg{ID: tmp}},
			}
			// Guard i+D < End so the chain load never runs past the
			// source object.
			chains = append(chains, &ir.If{
				Cond: ir.Lt(ir.Add(iv(), ir.C(d)), ir.CloneExpr(l.End)),
				Then: chainBody,
			})
		}
	}
	return chains
}
