//go:build !race

package exec

import (
	"encoding/binary"
	"runtime"
	"testing"

	"mira/internal/cache"
	"mira/internal/farmem"
	"mira/internal/ir"
	"mira/internal/profile"
	"mira/internal/rt"
	"mira/internal/sim"
)

// hitPathProgram executes, per loop iteration, one of everything the
// interpreter does on a warm section: Assign, two Loads, an If with both
// arms, a Store, a Prefetch, a BatchPrefetch of 8 and an Evict.
func hitPathProgram(n int64) *ir.Program {
	b := ir.NewBuilder("hitpath")
	b.Object("recs", 64, n, ir.F("key", 0, 8), ir.F("val", 8, 4))
	b.IntArray("out", n)
	fb := b.Func("main")
	acc := fb.Var(ir.C(0))
	fb.Loop(ir.C(0), ir.C(n), ir.C(1), func(i ir.Expr) {
		k := fb.Load("recs", i, "key")
		v := fb.Load("recs", i, "val")
		nv := fb.Let(ir.Add(v, ir.Mul(k, ir.C(3))))
		fb.If(ir.Lt(ir.Mod(i, ir.C(3)), ir.C(1)), func() {
			fb.Set(acc, ir.Add(ir.R(acc.ID), nv))
		}, func() {
			fb.Set(acc, ir.Sub(ir.R(acc.ID), ir.CF(0.5)))
		})
		fb.Store("out", i, "", ir.R(acc.ID))
		fb.Prefetch("recs", ir.Min(ir.Add(i, ir.C(4)), ir.C(n-1)), "key")
		var batch []ir.PrefetchRef
		for d := int64(1); d <= 8; d++ {
			batch = append(batch, ir.PrefetchRef{Obj: "recs", Index: ir.Mod(ir.Add(i, ir.C(d)), ir.C(n)), Field: "val"})
		}
		fb.BatchPrefetch(batch...)
		fb.Evict("recs", i)
	})
	fb.Return(ir.R(acc.ID))
	return b.MustProgram()
}

// The hit path of the interpreter: once a body is resolved and its section
// warm, executing it allocates nothing — no field key, no parameter map, no
// batch entries, no boxed operands — with a collector listening or without.
func TestWarmBodyAllocatesNothing(t *testing.T) {
	const n = 256
	p := hitPathProgram(n)
	for _, profiled := range []bool{false, true} {
		var opt Options
		if profiled {
			opt.Collector = profile.NewCollector()
		}
		ex, err := New(p, rtBackend(t, p), opt)
		if err != nil {
			t.Fatal(err)
		}
		clk := sim.NewClock(0)
		fn, _ := p.EntryFunc()
		body := ex.tab.resolve(fn)
		fr := ex.newFrame(clk, fn, nil)
		run := func() {
			if _, _, err := ex.run(&fr, body); err != nil {
				t.Fatal(err)
			}
		}
		run() // resolve is done; this warms the section and sizes the batch scratch
		if got := testing.AllocsPerRun(20, run); got != 0 {
			t.Errorf("profiled=%v: %v allocs per %d warm iterations, want 0", profiled, got, n)
		}
		if profiled {
			if rec := opt.Collector.Func("main"); rec == nil || rec.Accesses < 3*n {
				t.Errorf("the collector heard nothing: %+v", rec)
			}
		}
	}
}

// A tensor intrinsic on a warm section allocates nothing either: its operands
// live in the executor's float scratch, which the bulk path reads into and
// writes from directly, and the scratch is sized by the first execution.
func TestWarmIntrinsicAllocatesNothing(t *testing.T) {
	const m, k, n = 5, 7, 6 // none a multiple of four: the kernels' tails run too
	// a at 0, b behind it, the destination (m×n or m×k) last.
	const aOff, bOff, dstOff, total = 0, m * k, m*k + k*n, m*k + k*n + m*k
	a, dst := ir.T("mem", ir.C(aOff), m, k), ir.T("mem", ir.C(dstOff), m, k)
	kinds := []struct {
		kind ir.IntrKind
		emit func(fb *ir.FuncBuilder)
	}{
		{ir.IntrMatMul, func(fb *ir.FuncBuilder) {
			fb.MatMul(ir.T("mem", ir.C(dstOff), m, n), a, ir.T("mem", ir.C(bOff), k, n))
		}},
		{ir.IntrMatMulT, func(fb *ir.FuncBuilder) {
			fb.MatMulT(ir.T("mem", ir.C(dstOff), m, n), a, ir.T("mem", ir.C(bOff), n, k))
		}},
		{ir.IntrAdd, func(fb *ir.FuncBuilder) { fb.Binary(ir.IntrAdd, dst, a, ir.T("mem", ir.C(bOff), m, k)) }},
		{ir.IntrLayerNorm, func(fb *ir.FuncBuilder) { fb.Unary(ir.IntrLayerNorm, dst, a) }},
		{ir.IntrSoftmax, func(fb *ir.FuncBuilder) { fb.Unary(ir.IntrSoftmax, dst, a) }},
		{ir.IntrGelu, func(fb *ir.FuncBuilder) { fb.Unary(ir.IntrGelu, dst, a) }},
		{ir.IntrCopy, func(fb *ir.FuncBuilder) { fb.Unary(ir.IntrCopy, dst, a) }},
		{ir.IntrZero, func(fb *ir.FuncBuilder) { fb.Zero(dst) }},
	}
	for _, tc := range kinds {
		b := ir.NewBuilder("intr")
		b.FloatArray("mem", total)
		fb := b.Func("main")
		tc.emit(fb)
		p := b.MustProgram()
		ex, err := New(p, rtBackend(t, p), Options{})
		if err != nil {
			t.Fatal(err)
		}
		clk := sim.NewClock(0)
		fn, _ := p.EntryFunc()
		body := ex.tab.resolve(fn)
		fr := ex.newFrame(clk, fn, nil)
		run := func() {
			if _, _, err := ex.run(&fr, body); err != nil {
				t.Fatal(err)
			}
		}
		run() // warms the section and sizes the float scratch
		if got := testing.AllocsPerRun(20, run); got != 0 {
			t.Errorf("%v: %v allocs per warm execution, want 0", tc.kind, got)
		}
	}
}

// gatherProgram is a pointer-chasing loop over n source elements whose two
// chains are gathered a window of g ahead, as codegen emits it: a priming
// gather at the first iteration and one gather every g iterations.
func gatherProgram(n, m, g int64) *ir.Program {
	b := ir.NewBuilder("gather")
	b.Object("src", 16, n, ir.F("a", 0, 8), ir.F("b", 8, 8))
	b.IntArray("tgt", m)
	fb := b.Func("main")
	acc := fb.Var(ir.C(0))
	fb.Loop(ir.C(0), ir.C(n), ir.C(1), func(i ir.Expr) {
		fb.Set(acc, ir.Add(ir.R(acc.ID), fb.Load("tgt", fb.Load("src", i, "a"), "")))
		fb.Set(acc, ir.Add(ir.R(acc.ID), fb.Load("tgt", fb.Load("src", i, "b"), "")))
	})
	fb.Return(ir.R(acc.ID))
	p := b.MustProgram()
	l := p.Funcs[0].Body[1].(*ir.Loop)
	iv := func() ir.Expr { return ir.R(l.IVReg) }
	gather := func(lo, hi ir.Expr) []ir.Stmt {
		return []ir.Stmt{&ir.GatherPrefetch{Src: "src", Lo: lo, Hi: ir.Min(ir.C(n), hi), Native: true,
			Chains: []ir.GatherChain{{SrcField: "a", Target: "tgt"}, {SrcField: "b", Target: "tgt"}}}}
	}
	l.Body = append([]ir.Stmt{
		&ir.If{Cond: ir.Eq(iv(), ir.C(0)), Then: gather(iv(), ir.Add(iv(), ir.C(g)))},
		&ir.If{Cond: ir.Eq(ir.Mod(iv(), ir.C(g)), ir.C(0)), Then: gather(ir.Add(iv(), ir.C(g)), ir.Add(iv(), ir.C(2*g)))},
	}, l.Body...)
	return p
}

// A gathered chain allocates nothing once warm: the executor refills its
// window scratch and rt.PrefetchBatch its claimed-line scratch, both sized by
// the first execution. Checked with every target line resident (each gather
// only refreshes recency) and with a target section of 8 lines that every
// window cycles (each gather claims, evicts and lands lines).
func TestWarmGatherAllocatesNothing(t *testing.T) {
	const n, m, g = 512, 256, 8
	p := gatherProgram(n, m, g)
	for _, cycling := range []bool{false, true} {
		be := rtBackend(t, p)
		if cycling {
			cfg := rt.Config{
				LocalBudget: 8 << 20,
				Sections: []rt.SectionSpec{
					{Cache: cache.Config{Name: "src", Structure: cache.Direct, LineBytes: 2048, SizeBytes: 16 << 10}},
					{Cache: cache.Config{Name: "tgt", Structure: cache.SetAssoc, Ways: 4, LineBytes: 64, SizeBytes: 8 * 64}},
				},
				Placements: map[string]rt.Placement{
					"src": {Kind: rt.PlaceSection, Section: 0},
					"tgt": {Kind: rt.PlaceSection, Section: 1},
				},
			}
			r, err := rt.New(cfg, farmem.NewNode(farmem.NodeConfig{Capacity: 1 << 24, CPUSlowdown: 1}))
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Bind(p); err != nil {
				t.Fatal(err)
			}
			src := make([]byte, n*16)
			for j := range int64(2 * n) {
				binary.LittleEndian.PutUint64(src[8*j:], uint64(j*37%m))
			}
			if err := r.InitObject("src", src); err != nil {
				t.Fatal(err)
			}
			be = r
		}
		ex, err := New(p, be, Options{})
		if err != nil {
			t.Fatal(err)
		}
		clk := sim.NewClock(0)
		fn, _ := p.EntryFunc()
		body := ex.tab.resolve(fn)
		fr := ex.newFrame(clk, fn, nil)
		run := func() {
			if _, _, err := ex.run(&fr, body); err != nil {
				t.Fatal(err)
			}
		}
		run() // warms the sections and sizes both scratches
		issued := be.PrefetchStats().Issued
		if got := testing.AllocsPerRun(10, run); got != 0 {
			t.Errorf("cycling %v: %v allocs per warm execution, want 0", cycling, got)
		}
		if fetched := be.PrefetchStats().Issued > issued; fetched != cycling {
			t.Errorf("cycling %v: warm gathers fetched lines: %v", cycling, fetched)
		}
	}
}

// Resolving compiles each expression to closures — a register operand is a
// 16-byte closure, an infallible subtree one closure per specialised shape —
// where the tree it replaced built a 96-byte expr per node. Over exec.New
// plus resolving every function, the tree allocated per run (go1.24, amd64):
// scanProgram(1024) 4 224 B in 29 allocations, hitPathProgram(256) 11 536 B
// in 95, chaseProgram(1024) 2 176 B in 14. Sub-offload bodies and serve
// requests resolve per call, so this is on their run path.
func TestResolveAllocatesLessThanTheTree(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *ir.Program
		tree uint64 // bytes per run when resolving built the expr tree
	}{
		{"scan", scanProgram(1024), 4224},
		{"hitpath", hitPathProgram(256), 11536},
		{"chase", chaseProgram(1024), 2176},
	} {
		be := rtBackend(t, tc.p)
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			ex, err := New(tc.p, be, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, fn := range tc.p.Funcs {
				ex.tab.resolve(fn)
			}
		}
		runtime.ReadMemStats(&after)
		got := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %d B in %d allocations per run (the tree: %d B)", tc.name, got, (after.Mallocs-before.Mallocs)/runs, tc.tree)
		if got >= tc.tree {
			t.Errorf("%s: resolving allocates %d B per run, the expr tree took %d B", tc.name, got, tc.tree)
		}
	}
}

// aheadProgram runs three elementwise intrinsics whose operands ride one
// intrinsic ahead: the first prefetches the second's, which read x (kept
// resident in section 0), w (in section 1, two lines, which the third's v
// evicts again) and a page of p (swap-placed, in a one-page pool the third's
// page displaces).
func aheadProgram() *ir.Program {
	b := ir.NewBuilder("ahead")
	for _, name := range []string{"x", "y", "w", "v"} {
		b.FloatArray(name, 512)
	}
	b.FloatArray("p", 2048)
	fb := b.Func("main")
	t := func(obj string, off int64) ir.TensorRef { return ir.T(obj, ir.C(off), 8, 64) }
	fb.Binary(ir.IntrAdd, t("y", 0), t("x", 0), t("x", 0))
	fb.Binary(ir.IntrAdd, t("y", 0), t("w", 0), t("p", 0))
	fb.Binary(ir.IntrAdd, t("y", 0), t("v", 0), t("p", 1024))
	p := b.MustProgram()
	p.Funcs[0].Body[0].(*ir.Intrinsic).Ahead = []ir.PrefetchRange{
		{Obj: "x", Off: ir.C(0), Elems: 512, Step: 256},
		{Obj: "w", Off: ir.C(0), Elems: 512, Step: 256},
		{Obj: "p", Off: ir.C(0), Elems: 512, Step: 512},
		{Obj: "w", Off: ir.C(256), Elems: 256, Step: 256}, // in flight by now
	}
	return p
}

// An intrinsic's operands ahead allocate nothing once warm: the executor
// refills its batch scratch, and rt.PrefetchBatch its claimed-line, far
// address and page scratch. Every execution prefetches resident lines
// (refreshed only), lines that go on the wire and are still in flight when
// the next intrinsic reads them, one of them a second time while it is in
// flight, and a swap page.
func TestWarmAheadAllocatesNothing(t *testing.T) {
	p := aheadProgram()
	cfg := rt.Config{
		LocalBudget: 8 << 20,
		SwapPool:    4096,
		Sections: []rt.SectionSpec{
			{Cache: cache.Config{Name: "big", Structure: cache.Direct, LineBytes: 2048, SizeBytes: 64 << 10}},
			{Cache: cache.Config{Name: "small", Structure: cache.Direct, LineBytes: 2048, SizeBytes: 2 * 2048}},
		},
		Placements: map[string]rt.Placement{
			"x": {Kind: rt.PlaceSection, Section: 0},
			"y": {Kind: rt.PlaceSection, Section: 0},
			"w": {Kind: rt.PlaceSection, Section: 1},
			"v": {Kind: rt.PlaceSection, Section: 1},
		},
	}
	r, err := rt.New(cfg, farmem.NewNode(farmem.NodeConfig{Capacity: 1 << 24, CPUSlowdown: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Bind(p); err != nil {
		t.Fatal(err)
	}
	ex, err := New(p, r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	clk := sim.NewClock(0)
	fn, _ := p.EntryFunc()
	body := ex.tab.resolve(fn)
	fr := ex.newFrame(clk, fn, nil)
	run := func() {
		if _, _, err := ex.run(&fr, body); err != nil {
			t.Fatal(err)
		}
	}
	run() // warms the sections and sizes every scratch
	lines, pages := r.SectionPrefetchStats(1).Issued, r.SwapStats().Prefetch.Issued
	const runs = 10
	if got := testing.AllocsPerRun(runs, run); got != 0 {
		t.Errorf("%v allocs per warm execution, want 0", got)
	}
	// AllocsPerRun runs once more to warm up.
	if got := r.SectionPrefetchStats(1).Issued - lines; got != 2*(runs+1) {
		t.Errorf("%d lines of w prefetched in %d runs, want 2 a run", got, runs+1)
	}
	if got := r.SwapStats().Prefetch.Issued - pages; got != runs+1 {
		t.Errorf("%d pages of p prefetched in %d runs, want 1 a run", got, runs+1)
	}
	if hits, _ := r.ObjectStats("x"); hits == 0 {
		t.Error("x never hit")
	}
}
