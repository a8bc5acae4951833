// Package codegen rewrites IR programs according to a Plan: it fuses
// adjacent loops (§4.5 batching), inserts prefetch operations one network
// round-trip ahead of accesses (§4.5 adaptive prefetching, including
// chained indirect prefetches), inserts eviction hints after last accesses
// (§4.5), converts provably-resident dereferences to native loads (§4.4),
// marks write-only full-line stores as no-fetch (§4.5), and marks calls to
// offloaded functions (§4.8). The input program is never mutated; Apply
// returns a transformed clone.
package codegen

import (
	"fmt"
	"slices"

	"mira/internal/analysis"
	"mira/internal/ir"
)

// ObjectPlan carries the per-object decisions the planner made.
type ObjectPlan struct {
	Object string
	// Pattern is the merged analyzed pattern driving the choices below.
	Pattern analysis.Pattern
	// PrefetchDistance is how many elements ahead to prefetch (0
	// disables). The planner leads a batched sequential or strided stream
	// by the most whole lines that fit in its share of a quarter of its
	// section (the section's streams split the quarter), never nearer than
	// the round trip max(2·dElems, LineElems) rounded up to a whole line;
	// an unbatched stream, or one in a section not sized yet (a reused
	// section before sampling sizes it), leads by that round trip. A
	// chained indirect target is nonzero here to enable its chain: gathered
	// (GatherWindow > 0), it is prefetched one to two windows ahead;
	// otherwise its per-element chain runs dElems ahead. dElems is the round trip in elements, RTT / profiled
	// per-iteration time clamped to [4, 64] (§4.5); that cap bounds only
	// the per-element chain distance, section sizing and eviction lags.
	PrefetchDistance int64
	// LineElems is elements per cache line: prefetches and eviction
	// hints fire once per line boundary, not per element.
	LineElems int64
	// BatchLines vectorizes the prefetch stream: each doorbell fetches
	// this many future lines in one batched chain, and the guard fires
	// once per BatchLines line boundaries instead of per line (§4.5 data
	// access batching). 0 or 1 keeps the per-line prefetch.
	BatchLines int64
	// Native converts this object's loop accesses to native loads —
	// legal when the planner proved prefetch-covered residency and no
	// conflicting accesses (§4.4).
	Native bool
	// NoFetch marks sequential whole-element stores as
	// allocate-without-fetch (§4.5 read/write optimization).
	NoFetch bool
	// EvictLag inserts eviction hints EvictLag elements behind the
	// current access (0 disables).
	EvictLag int64
	// ChainedFrom enables indirect prefetching: this object's indices
	// come from values loaded from ChainedFrom, so codegen loads
	// ChainedFrom's elements ahead of the loop and prefetches this object
	// at their values (§1's motivating example). With a GatherWindow of G,
	// one guard per G iterations loads the next window's G source elements
	// and posts their prefetches as one doorbell-batched gather
	// (ir.GatherPrefetch); with none, every iteration loads
	// ChainedFrom[i+PrefetchDistance] and prefetches on its own.
	ChainedFrom string
	// GatherWindow is the chained target's window G in source elements (0:
	// the per-element chain). The planner sizes it so the window in use and
	// the one landing hold at most an eighth of the target's section, and
	// so the gather's source loads, up to 2G ahead, stay within the source
	// stream's lead and its section.
	GatherWindow int64
}

// Plan is codegen's complete instruction set for one compilation.
type Plan struct {
	Objects map[string]*ObjectPlan
	// FuseLoops applies loop fusion to dependence-safe adjacent loops.
	FuseLoops bool
	// BatchFusedPrefetch replaces the per-object prefetches of a fused
	// loop with one scatter-gather BatchPrefetch per line boundary.
	BatchFusedPrefetch bool
	// SuppressPrefetchStmts skips emitting Prefetch/BatchPrefetch
	// statements (and their guards and priming doorbells) while keeping
	// every other decision — Native conversion, NoFetch stores, eviction
	// hints. Used by the programmed-prefetch arm: an access-program runner
	// provides the residency coverage the statements would have, without
	// their per-iteration guard arithmetic.
	SuppressPrefetchStmts bool
	// Offload marks calls to these functions as far-node executions.
	Offload map[string]bool
	// ReleaseAfter appends rmem.release operations at the end of each
	// listed function for the objects whose global lifetime ends there
	// (§4.1 lifetime-bounded sections).
	ReleaseAfter map[string][]string
}

// Apply transforms a clone of p according to plan.
func Apply(p *ir.Program, plan *Plan) (*ir.Program, error) {
	out := ir.Clone(p)
	ahead := prefetches(plan)
	for _, fn := range out.Funcs {
		if plan.FuseLoops {
			fn.Body = fuseBlocks(fn.Body)
		}
		if plan.Offload[fn.Name] {
			// Offloaded bodies execute on the far node next to the
			// data: cache-section instrumentation (prefetch/evict
			// guards, native annotations, releases) would only burn
			// far-CPU cycles there.
			continue
		}
		g := &gen{p: out, fn: fn, plan: plan, ahead: ahead}
		g.block(fn.Body)
		if len(plan.Offload) > 0 {
			fn.Body = markOffloads(fn.Body, plan.Offload)
		}
		for _, obj := range plan.ReleaseAfter[fn.Name] {
			// Keep a trailing Return last.
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

// ChainsPerElement reports, for every chained target of plan, how many
// chained prefetches of it one source element issues: the most chain sites
// feeding it in any one loop of p as Apply would compile it (fused when the
// plan fuses). A target no loop chains is absent.
func ChainsPerElement(p *ir.Program, plan *Plan) map[string]int64 {
	out := map[string]int64{}
	chained := false
	for _, op := range plan.Objects {
		chained = chained || op.ChainedFrom != ""
	}
	if !chained {
		return out
	}
	p = ir.Clone(p)
	for _, fn := range p.Funcs {
		if plan.Offload[fn.Name] {
			continue
		}
		if plan.FuseLoops {
			fn.Body = fuseBlocks(fn.Body)
		}
		g := &gen{p: p, fn: fn, plan: plan}
		ir.Walk(fn.Body, func(s ir.Stmt) bool {
			l, ok := s.(*ir.Loop)
			if !ok {
				return true
			}
			k := map[string]int64{}
			for _, a := range g.collectAccesses(l) {
				for _, ch := range a.chains {
					if tp := plan.Objects[ch.target]; tp != nil && tp.ChainedFrom == a.obj {
						k[ch.target]++
					}
				}
			}
			for t, n := range k {
				out[t] = max(out[t], n)
			}
			return true
		})
	}
	return out
}

// fuseBlocks merges runs of same-bounds dependence-free loops, recursively.
// Loops in a run may be separated by constant-valued scalar assignments
// (accumulator initializations); those are hoisted above the fused loop,
// which preserves semantics because they read no registers and touch no
// memory.
func fuseBlocks(body []ir.Stmt) []ir.Stmt {
	var out []ir.Stmt
	i := 0
	for i < len(body) {
		l0, ok := body[i].(*ir.Loop)
		if !ok {
			if ifSt, isIf := body[i].(*ir.If); isIf {
				ifSt.Then = fuseBlocks(ifSt.Then)
				ifSt.Else = fuseBlocks(ifSt.Else)
			}
			out = append(out, body[i])
			i++
			continue
		}
		// Extend the run: [loop] (hoistable* loop)*
		loops := []*ir.Loop{l0}
		loopIdx := []int{i}
		var hoisted []ir.Stmt
		j := i + 1
		for j < len(body) {
			// Skip a stretch of hoistable scalar assigns.
			k := j
			var pending []ir.Stmt
			for k < len(body) {
				a, isAssign := body[k].(*ir.Assign)
				if !isAssign || ir.ExprOps(a.Val) != 0 || !constExpr(a.Val) {
					break
				}
				pending = append(pending, a)
				k++
			}
			lk, isLoop := (ir.Stmt)(nil), false
			if k < len(body) {
				var l *ir.Loop
				l, isLoop = body[k].(*ir.Loop)
				lk = l
			}
			if !isLoop || !analysis.SameBounds(l0, lk.(*ir.Loop)) {
				break
			}
			candidate := make([]ir.Stmt, 0, len(loops)+1)
			for _, l := range loops {
				candidate = append(candidate, l)
			}
			candidate = append(candidate, lk)
			if !analysis.CanFuse(candidate) {
				break
			}
			hoisted = append(hoisted, pending...)
			loops = append(loops, lk.(*ir.Loop))
			loopIdx = append(loopIdx, k)
			j = k + 1
		}
		if len(loops) > 1 {
			out = append(out, hoisted...)
			fused := &ir.Loop{
				Name:  l0.Name,
				IVReg: l0.IVReg,
				Start: l0.Start,
				End:   l0.End,
				Step:  l0.Step,
				Body:  append([]ir.Stmt(nil), l0.Body...),
			}
			for _, lk := range loops[1:] {
				ir.SubstRegBlock(lk.Body, lk.IVReg, fused.IVReg)
				fused.Body = append(fused.Body, lk.Body...)
			}
			fused.Body = fuseBlocks(fused.Body)
			out = append(out, fused)
		} else {
			l0.Body = fuseBlocks(l0.Body)
			out = append(out, l0)
		}
		i = j
	}
	return out
}

// constExpr reports whether e is a literal constant.
func constExpr(e ir.Expr) bool {
	switch e.(type) {
	case *ir.Const, *ir.ConstF:
		return true
	default:
		return false
	}
}

// gen walks a function inserting runtime operations.
type gen struct {
	p    *ir.Program
	fn   *ir.Func
	plan *Plan
	// ahead reports that the plan prefetches, and so intrinsics prefetch
	// their successors' operands (operandsAhead).
	ahead bool
}

// prefetches reports whether plan emits prefetch statements: some planned
// object prefetches and the statements are not suppressed. Intrinsics
// prefetch their successors' operands under the same condition, so a plan
// without prefetching — the NoPrefetch mask, the programmed arm, a
// swap-only plan — leaves them as they are.
func prefetches(plan *Plan) bool {
	if plan.SuppressPrefetchStmts {
		return false
	}
	for _, op := range plan.Objects {
		if op.PrefetchDistance > 0 {
			return true
		}
	}
	return false
}

// newReg allocates a fresh register on the transformed function.
func (g *gen) newReg() int {
	r := g.fn.NumRegs
	g.fn.NumRegs++
	return r
}

// block processes statements; loops get prefetch/evict instrumentation.
func (g *gen) block(body []ir.Stmt) {
	for i, s := range body {
		switch st := s.(type) {
		case *ir.Loop:
			body[i] = g.instrumentLoop(st)
			g.block(st.Body)
		case *ir.If:
			g.block(st.Then)
			g.block(st.Else)
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
		case *ir.Intrinsic:
			if g.ahead {
				st.Ahead = g.operandsAhead(st, body[:i], body[i+1:])
			}
		}
	}
}

// pageBytes is the swap page (swap.PageBytes): a swap-placed operand is
// prefetched one page advisory per page.
const pageBytes = 4096

// operandsAhead returns the far operands of the next intrinsic in rest that
// reads far memory, as the ranges cur prefetches ahead (§6.1 layer-wise
// streaming): a section-placed object one line per step, a swap-placed one
// one page per step. Local objects are skipped, and so is every object
// written before that intrinsic reads it — cur's destination, and the
// destination of each intrinsic passed over (an IntrZero, or one reading
// only local memory): its lines are resident, or about to be overwritten.
// The search ends at the first statement that is not an intrinsic, so the
// ranges' offsets, evaluated when cur runs, are the ones the successor
// reads: no intrinsic writes a register. An intrinsic that reads no far
// memory right after another intrinsic (before) prefetches nothing: that one
// already prefetched the successor they share.
func (g *gen) operandsAhead(cur *ir.Intrinsic, before, rest []ir.Stmt) []ir.PrefetchRange {
	if n := len(before); n > 0 && !g.readsFar(cur) {
		if _, ok := before[n-1].(*ir.Intrinsic); ok {
			return nil
		}
	}
	for i, s := range rest {
		next, ok := s.(*ir.Intrinsic)
		if !ok {
			return nil
		}
		if !g.readsFar(next) {
			continue
		}
		var ahead [3]ir.PrefetchRange
		n := 0
		for _, t := range readOperands(next) {
			o := g.farObject(t.Obj)
			if o == nil || t.Obj == cur.Dst.Obj || writes(rest[:i], t.Obj) {
				continue
			}
			step := int64(pageBytes / o.ElemBytes)
			if op := g.plan.Objects[t.Obj]; op != nil {
				step = op.LineElems
			}
			// The offset is shared with the successor's operand: IR
			// expressions are never changed in place.
			ahead[n] = ir.PrefetchRange{Obj: t.Obj, Off: t.Off, Elems: t.Elems(), Step: step}
			n++
		}
		if n == 0 {
			return nil
		}
		return slices.Clone(ahead[:n])
	}
	return nil
}

// readsFar reports whether st reads an object that is not local.
func (g *gen) readsFar(st *ir.Intrinsic) bool {
	for _, t := range readOperands(st) {
		if g.farObject(t.Obj) != nil {
			return true
		}
	}
	return false
}

// farObject resolves name to an object that lives in far memory, nil for
// none (no operand) or a local one.
func (g *gen) farObject(name string) *ir.Object {
	if o, ok := g.p.Object(name); ok && !o.Local {
		return o
	}
	return nil
}

// writes reports whether one of the intrinsics in passed writes obj.
func writes(passed []ir.Stmt, obj string) bool {
	for _, s := range passed {
		if s.(*ir.Intrinsic).Dst.Obj == obj {
			return true
		}
	}
	return false
}

// readOperands returns the tensors an intrinsic reads: its sources, and the
// destination a matrix product accumulates into. An operand it does not
// read has no object: IntrZero reads nothing, a unary kind no B.
func readOperands(st *ir.Intrinsic) [3]ir.TensorRef {
	if st.Kind == ir.IntrZero {
		return [3]ir.TensorRef{}
	}
	out := [3]ir.TensorRef{st.A, st.B}
	if st.Kind == ir.IntrMatMul || st.Kind == ir.IntrMatMulT {
		out[2] = st.Dst
	}
	return out
}

// loopAccess describes one object's direct accesses in a loop body.
type loopAccess struct {
	obj    string
	field  string // a field accessed at the sequential index (for prefetch)
	plan   *ObjectPlan
	chains []chainSite
}

// chainSite is a sequential load whose result indexes another object.
type chainSite struct {
	srcField string
	target   string
}

// instrumentLoop inserts prefetches at the top of the body and eviction
// hints at the bottom, per the object plans, and returns the statement that
// takes l's place. That is l itself, flat, unless every line-boundary guard
// can fire only on a line boundary: then it is a tile nest (ir.TileNest) that
// evaluates the guards once per line, around l with its chained prefetches
// and body, whenever the nest costs fewer operators than the flat loop.
func (g *gen) instrumentLoop(l *ir.Loop) ir.Stmt {
	accesses := g.collectAccesses(l)
	if len(accesses) == 0 {
		return l
	}
	iv := func() ir.Expr { return &ir.Reg{ID: l.IVReg} }

	// pre and post are the guards at the top and bottom of an iteration,
	// chains the chained prefetches. tile is the gcd of the line sizes the
	// guards fire on, or -1 once one can fire off a line boundary.
	var pre, chains, post []ir.Stmt
	tile := int64(0)
	onLines := func(d, le int64) {
		if tile < 0 || le <= 1 || d%le != 0 {
			tile = -1
			return
		}
		tile = gcd(tile, le)
	}

	// Sequential prefetches (possibly batched across fused objects).
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
		// One doorbell covers b future lines of every fused object: the
		// entry list is the cross product (object × line offset), and the
		// guard widens to fire once per b line boundaries.
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
		onLines(d, le)
	} else {
		for _, a := range seqPF {
			d, le := a.plan.PrefetchDistance, a.plan.LineElems
			onLines(d, le)
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

	// Chained prefetches: a gathered target's chains join their source's
	// window; any other loads src[i+D] and prefetches target[that value]
	// on every iteration.
	var windows []*gatherWindow
	for _, a := range accesses {
		if g.plan.SuppressPrefetchStmts {
			break
		}
		for _, ch := range a.chains {
			tplan := g.plan.Objects[ch.target]
			if tplan == nil || tplan.PrefetchDistance <= 0 || tplan.ChainedFrom != a.obj {
				continue
			}
			if w := tplan.GatherWindow; w > 0 && gatherable(l) {
				windows = joinWindow(windows, a, w, ir.GatherChain{SrcField: ch.srcField, Target: ch.target})
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
	for _, w := range windows {
		chains = append(chains, w.guards(l)...)
	}

	// Eviction hints behind the access front.
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
		onLines(lag, a.plan.LineElems)
	}

	guards := slices.Concat(pre, post)
	if tile > 1 && tileCheaper(l, tile, guards) {
		l.Body = slices.Concat(chains, l.Body)
		return ir.TileNest(l, tile, g.newReg(), guards)
	}
	if len(guards) > 0 || len(chains) > 0 {
		l.Body = slices.Concat(pre, chains, l.Body, post)
	}
	return l
}

// gatherWindow is one source's gathered chains that share a window.
type gatherWindow struct {
	src    *loopAccess
	g      int64
	chains []ir.GatherChain
}

// joinWindow adds chain c of source a to the window of g elements it shares
// with a's other chains of that window, opening one if there is none.
func joinWindow(ws []*gatherWindow, a *loopAccess, g int64, c ir.GatherChain) []*gatherWindow {
	for _, w := range ws {
		if w.src == a && w.g == g {
			w.chains = append(w.chains, c)
			return ws
		}
	}
	return append(ws, &gatherWindow{src: a, g: g, chains: []ir.GatherChain{c}})
}

// guards builds the window's two gathers over loop l, whose iterations run
// iv = S, S+1, …, E-1: at iv == S a priming gather of [S, min(E, S+G)), and
// whenever (iv−S) % G == 0 the gather of the next window,
// [iv+G, min(E, iv+2G)). Every source element in [S, E) is gathered exactly
// once, a window ahead of its use, and none past E. The steady gathers' source
// loads are native when the source's are: they read within the source
// stream's lead. The priming gather's are not — its lines are the loop's
// first, which the source stream only starts to prefetch with the loop.
func (w *gatherWindow) guards(l *ir.Loop) []ir.Stmt {
	iv := func() ir.Expr { return &ir.Reg{ID: l.IVReg} }
	gather := func(lo, hi ir.Expr, native bool) []ir.Stmt {
		return []ir.Stmt{&ir.GatherPrefetch{
			Src:    w.src.obj,
			Lo:     lo,
			Hi:     ir.Min(ir.CloneExpr(l.End), hi),
			Chains: slices.Clone(w.chains),
			Native: native,
		}}
	}
	return []ir.Stmt{
		&ir.If{
			Cond: ir.Eq(iv(), ir.CloneExpr(l.Start)),
			Then: gather(iv(), ir.Add(iv(), ir.C(w.g)), false),
		},
		&ir.If{
			Cond: ir.Eq(ir.Mod(ir.Sub(iv(), ir.CloneExpr(l.Start)), ir.C(w.g)), ir.C(0)),
			Then: gather(ir.Add(iv(), ir.C(w.g)), ir.Add(iv(), ir.C(2*w.g)), w.src.plan.Native),
		},
	}
}

// gatherable reports whether l's chains can be gathered: a unit step, so
// the window's elements are the ones the loop visits, and bounds the body
// never writes, so the guards can re-read them on every iteration.
func gatherable(l *ir.Loop) bool {
	if st, ok := l.Step.(*ir.Const); !ok || st.I != 1 {
		return false
	}
	written := map[int]bool{l.IVReg: true}
	ir.Walk(l.Body, func(s ir.Stmt) bool {
		switch st := s.(type) {
		case *ir.Assign:
			written[st.Dst] = true
		case *ir.Load:
			written[st.Dst] = true
		case *ir.Call:
			written[st.Dst] = true
		case *ir.Loop:
			written[st.IVReg] = true
		}
		return true
	})
	invariant := true
	for _, e := range []ir.Expr{l.Start, l.End} {
		ir.WalkExpr(e, func(x ir.Expr) bool {
			if r, ok := x.(*ir.Reg); ok && written[r.ID] {
				invariant = false
			}
			return invariant
		})
	}
	return invariant
}

// tileCheaper reports whether l can be strip-mined into tiles of tile
// elements and the nest costs fewer operators than the flat loop: the nest
// pays ir.TileOps and the guards' conditions once per tile, the flat loop the
// conditions once per element. Everything else — the body, the chained
// prefetches, what a firing guard does — the two pay alike.
func tileCheaper(l *ir.Loop, tile int64, guards []ir.Stmt) bool {
	tiles, trips, ok := ir.Tiles(l, tile)
	if !ok {
		return false
	}
	var ops int64
	for _, s := range guards {
		ops += int64(ir.ExprOps(s.(*ir.If).Cond))
	}
	return tiles*(ir.TileOps+ops) < trips*ops
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// guarded wraps op in a line-boundary guard: fire when (iv+d) enters a new
// line.
func guarded(iv func() ir.Expr, d, lineElems int64, op ir.Stmt) ir.Stmt {
	if lineElems <= 1 {
		return op
	}
	return &ir.If{
		Cond: ir.Eq(ir.Mod(ir.Add(iv(), ir.C(d)), ir.C(lineElems)), ir.C(0)),
		Then: []ir.Stmt{op},
	}
}

// priming builds the first-iteration doorbell of a batched prefetch stream.
// The steady-state guard first fires at the smallest iv with
// (iv+d) % (b*le) == 0 and covers indices from iv+d on, so every line in
// [Start, firstFire+d) — at most d/le + b lines — would demand-miss during
// warmup. One vectored gather on the first iteration fills that gap;
// entries past the object end or already resident are skipped at runtime.
func priming(iv func() ir.Expr, start ir.Expr, d, le, b int64, as []*loopAccess) ir.Stmt {
	if b < 2 || le < 1 {
		return nil
	}
	lines := d/le + b
	var entries []ir.PrefetchRef
	for k := int64(0); k < lines; k++ {
		for _, a := range as {
			entries = append(entries, ir.PrefetchRef{Obj: a.obj, Index: ir.Add(iv(), ir.C(k*le)), Field: a.field})
		}
	}
	return &ir.If{
		Cond: ir.Eq(iv(), ir.CloneExpr(start)),
		Then: []ir.Stmt{&ir.BatchPrefetch{Entries: entries}},
	}
}

func isSeqLike(p analysis.Pattern) bool {
	return p == analysis.PatternSequential || p == analysis.PatternStrided
}

// batchDepth picks the doorbell depth for a fused prefetch group: the widest
// requested BatchLines, floored at 1 (per-line).
func batchDepth(as []*loopAccess) int64 {
	b := int64(1)
	for _, a := range as {
		if a.plan.BatchLines > b {
			b = a.plan.BatchLines
		}
	}
	return b
}

func sameLineElems(as []*loopAccess) bool {
	for _, a := range as[1:] {
		if a.plan.LineElems != as[0].plan.LineElems {
			return false
		}
	}
	return true
}

// collectAccesses finds the planned objects accessed directly in the loop
// body (not in nested loops — those get their own instrumentation), along
// with chain sites: loads whose destination registers index other planned
// objects.
func (g *gen) collectAccesses(l *ir.Loop) []*loopAccess {
	byObj := map[string]*loopAccess{}
	var order []string
	loadDst := map[int]struct {
		obj   string
		field string
	}{}

	record := func(obj, field string) *loopAccess {
		a, ok := byObj[obj]
		if !ok {
			op := g.plan.Objects[obj]
			if op == nil {
				return nil
			}
			a = &loopAccess{obj: obj, field: field, plan: op}
			byObj[obj] = a
			order = append(order, obj)
		}
		return a
	}

	var walk func(body []ir.Stmt, nested bool)
	walk = func(body []ir.Stmt, nested bool) {
		for _, s := range body {
			switch st := s.(type) {
			case *ir.Load:
				if !nested {
					record(st.Obj, st.Field)
					loadDst[st.Dst] = struct {
						obj   string
						field string
					}{st.Obj, st.Field}
				}
				g.chainCheck(byObj, st.Obj, st.Index, loadDst)
			case *ir.Store:
				if !nested {
					record(st.Obj, st.Field)
				}
				g.chainCheck(byObj, st.Obj, st.Index, loadDst)
			case *ir.If:
				walk(st.Then, nested)
				walk(st.Else, nested)
			case *ir.Loop:
				walk(st.Body, true)
			}
		}
	}
	walk(l.Body, false)

	out := make([]*loopAccess, 0, len(order))
	for _, obj := range order {
		out = append(out, byObj[obj])
	}
	return out
}

// chainCheck records a chain site when an access's index uses a register
// loaded from another planned object.
func (g *gen) chainCheck(byObj map[string]*loopAccess, target string, index ir.Expr, loadDst map[int]struct {
	obj   string
	field string
}) {
	if g.plan.Objects[target] == nil {
		return
	}
	ir.WalkExpr(index, func(e ir.Expr) bool {
		r, ok := e.(*ir.Reg)
		if !ok {
			return true
		}
		src, ok := loadDst[r.ID]
		if !ok || src.obj == target {
			return true
		}
		if a := byObj[src.obj]; a != nil {
			for _, c := range a.chains {
				if c.target == target && c.srcField == src.field {
					return true
				}
			}
			a.chains = append(a.chains, chainSite{srcField: src.field, target: target})
		}
		return true
	})
}

// markOffloads sets the Offload flag on calls to planned functions and
// fences in-flight asynchronous work before each.
func markOffloads(body []ir.Stmt, offload map[string]bool) []ir.Stmt {
	var out []ir.Stmt
	for _, s := range body {
		switch st := s.(type) {
		case *ir.Call:
			if offload[st.Callee] {
				st.Offload = true
				out = append(out, &ir.Fence{})
			}
		case *ir.Loop:
			st.Body = markOffloads(st.Body, offload)
		case *ir.If:
			st.Then = markOffloads(st.Then, offload)
			st.Else = markOffloads(st.Else, offload)
		}
		out = append(out, s)
	}
	return out
}
