package codegen

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"mira/internal/analysis"
	"mira/internal/apps/arraysum"
	"mira/internal/apps/distagg"
	"mira/internal/exec"
	"mira/internal/ir"
	"mira/internal/rt"
	"mira/internal/sim"
)

// recBackend is an exec.Backend that keeps every object as 8-byte integers
// and records, in order, each prefetch (a BatchPrefetch as one entry), each
// eviction hint and each access. Memory operations cost no time, so the
// clock counts operators alone.
type recBackend struct {
	mem                       map[string][]int64
	prefetch, evict, accesses []string
}

func (b *recBackend) Access(_ *sim.Clock, name string, elem int64, _ ir.Field, buf []byte, write bool, _ rt.AccessOpts) error {
	m := b.mem[name]
	if elem < 0 || elem >= int64(len(m)) {
		return fmt.Errorf("%s[%d] out of range", name, elem)
	}
	if write {
		m[elem] = int64(binary.LittleEndian.Uint64(buf))
	} else {
		binary.LittleEndian.PutUint64(buf, uint64(m[elem]))
	}
	b.accesses = append(b.accesses, fmt.Sprintf("%s[%d]%v", name, elem, write))
	return nil
}

func (b *recBackend) Prefetch(_ *sim.Clock, name string, elem int64, _ ir.Field) error {
	b.prefetch = append(b.prefetch, fmt.Sprintf("%s[%d]", name, elem))
	return nil
}

func (b *recBackend) PrefetchBatch(_ *sim.Clock, entries []rt.BatchEntry) error {
	s := "batch"
	for _, e := range entries {
		s += fmt.Sprintf(" %s[%d]", e.Obj, e.Elem)
	}
	b.prefetch = append(b.prefetch, s)
	return nil
}

func (b *recBackend) EvictHint(_ *sim.Clock, name string, elem int64) error {
	b.evict = append(b.evict, fmt.Sprintf("%s[%d]", name, elem))
	return nil
}

func (*recBackend) Fence(*sim.Clock)                                  {}
func (*recBackend) BulkRead(*sim.Clock, string, int64, []byte) error  { return nil }
func (*recBackend) BulkWrite(*sim.Clock, string, int64, []byte) error { return nil }
func (*recBackend) FlushObject(*sim.Clock, string) error              { return nil }
func (*recBackend) Release(*sim.Clock, string) error                  { return nil }
func (b *recBackend) run(t *testing.T, p *ir.Program) (sim.Duration, int64) {
	t.Helper()
	ex, err := exec.New(p, b, exec.Options{ComputeOp: 1})
	if err != nil {
		t.Fatal(err)
	}
	clk := sim.NewClock(0)
	v, err := ex.Run(clk)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, ir.Print(p))
	}
	return clk.Now().Sub(0), v.AsInt()
}

// targetCount sizes the object a chained prefetch indexes.
const targetCount = 64

// randomLoopCase builds one loop over a (and, fused from a second loop, b)
// with random bounds and step — unaligned starts and ends, empty loops and
// start >= end included — and a random plan: prefetch distances and eviction
// lags on and off a line boundary, batched, fused-batched and chained
// prefetches.
func randomLoopCase(rng *sim.RNG) (*ir.Program, *Plan) {
	le := int64(2) << rng.Intn(5)
	s := int64(rng.Intn(int(3 * le)))
	e := s - 5 + int64(rng.Intn(int(8*le+6)))
	step := []int64{1, 1, 2, le, 3}[rng.Intn(5)]
	count := max(e, s) + 1
	fused := rng.Intn(3) == 0

	b := ir.NewBuilder("tiles")
	b.IntArray("a", count)
	b.IntArray("b", count)
	b.IntArray("t", targetCount)
	fb := b.Func("main")
	acc := fb.Var(ir.C(0))
	chain := rng.Intn(2) == 0
	store := rng.Intn(3) == 0
	fb.Loop(ir.C(s), ir.C(e), ir.C(step), func(i ir.Expr) {
		x := fb.Load("a", i, "")
		if chain {
			x = fb.Load("t", x, "")
		}
		fb.Set(acc, ir.Add(ir.R(acc.ID), x))
		if store && !fused {
			fb.Store("b", i, "", ir.R(acc.ID))
		}
	})
	if fused {
		acc2 := fb.Var(ir.C(0))
		fb.Loop(ir.C(s), ir.C(e), ir.C(step), func(i ir.Expr) {
			fb.Set(acc2, ir.Add(ir.R(acc2.ID), fb.Load("b", i, "")))
		})
		fb.Set(acc, ir.Add(ir.R(acc.ID), ir.R(acc2.ID)))
	}
	fb.Return(ir.R(acc.ID))
	prog := b.MustProgram()

	pick := func(opts ...int64) int64 { return opts[rng.Intn(len(opts))] }
	seq := func(name string, le int64) *ObjectPlan {
		return &ObjectPlan{
			Object:           name,
			Pattern:          analysis.PatternSequential,
			PrefetchDistance: pick(0, le, le, 2*le, le+1),
			LineElems:        le,
			BatchLines:       pick(0, 0, 2, 4),
			EvictLag:         pick(0, le, 2*le, 2*le, le+1),
			Native:           rng.Intn(2) == 0,
		}
	}
	plan := &Plan{
		Objects: map[string]*ObjectPlan{
			"a": seq("a", le),
			"b": seq("b", pick(le, le, 2*le, 1)),
			"t": {Object: "t", Pattern: analysis.PatternIndirect, ChainedFrom: "a", PrefetchDistance: pick(0, 3, le), LineElems: 1},
		},
		FuseLoops:             fused,
		BatchFusedPrefetch:    rng.Intn(2) == 0,
		SuppressPrefetchStmts: rng.Intn(8) == 0,
	}
	return prog, plan
}

// TestTileNestMatchesFlat: on random loops the tile nest codegen emits
// issues the same prefetch (BatchPrefetch included), eviction-hint and
// access sequences as the flat loop refApply emits, returns the same value,
// and never takes more operators. Only the interleaving differs: a tile's
// eviction hint fires before its first body (DESIGN §9).
func TestTileNestMatchesFlat(t *testing.T) {
	const cases = 3000
	tiled := 0
	for seed := uint64(1); seed <= cases; seed++ {
		rng := sim.NewRNG(seed)
		prog, plan := randomLoopCase(rng)
		got, err := Apply(prog, plan)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refApply(prog, plan)
		if err != nil {
			t.Fatal(err)
		}
		nests := countNests(got)
		if nests > 0 {
			tiled++
		}
		mem := func() map[string][]int64 {
			m := map[string][]int64{}
			for _, o := range prog.Objects {
				m[o.Name] = make([]int64, o.Count)
				for i := range m[o.Name] {
					m[o.Name][i] = int64(i*7+3) % targetCount
				}
			}
			return m
		}
		bg, bw := &recBackend{mem: mem()}, &recBackend{mem: mem()}
		tg, vg := bg.run(t, got)
		tw, vw := bw.run(t, want)
		where := func() string {
			return fmt.Sprintf("seed %d (%d nests)\ntiled:\n%s\nflat:\n%s", seed, nests, ir.Print(got), ir.Print(want))
		}
		switch {
		case vg != vw:
			t.Fatalf("returned %d, flat %d; %s", vg, vw, where())
		case !slices.Equal(bg.prefetch, bw.prefetch):
			t.Fatalf("prefetches\n%v\nflat\n%v\n%s", bg.prefetch, bw.prefetch, where())
		case !slices.Equal(bg.evict, bw.evict):
			t.Fatalf("eviction hints\n%v\nflat\n%v\n%s", bg.evict, bw.evict, where())
		case !slices.Equal(bg.accesses, bw.accesses):
			t.Fatalf("accesses differ; %s", where())
		case tg > tw, nests > 0 && tg == tw:
			t.Fatalf("tiled clock %v, flat %v; %s", tg, tw, where())
		case nests == 0 && tg != tw:
			t.Fatalf("no nest, yet clock %v against flat %v; %s", tg, tw, where())
		}
	}
	if tiled < cases/6 {
		t.Errorf("only %d of %d random loops were tiled", tiled, cases)
	}
}

// countNests counts the tile nests in p.
func countNests(p *ir.Program) int {
	n := 0
	for _, fn := range p.Funcs {
		ir.Walk(fn.Body, func(s ir.Stmt) bool {
			if _, _, ok := ir.MatchTileNest(s); ok {
				n++
			}
			return true
		})
	}
	return n
}

// TestAnalyzeScatterSeesThroughTiles: the scatter kernels of distagg,
// distfilter and arraysum, compiled under a plan that tiles their loops,
// analyze to the same scatter plan as their source — the fold in
// analysis.stripInstrumentation recognises the nest.
func TestAnalyzeScatterSeesThroughTiles(t *testing.T) {
	const le = 256 // 2 KiB lines of 8-byte elements
	for _, c := range []struct {
		prog *ir.Program
		fn   string
		objs []string
	}{
		{distagg.New(distagg.Config{N: 1 << 12, Mode: "agg"}).Program(), "aggAll", []string{"a"}},
		{distagg.New(distagg.Config{N: 1 << 12, Mode: "filter"}).Program(), "filterAll", []string{"a", "out"}},
		{arraysum.New(arraysum.Config{N: 1 << 12, Seed: 1}).Program(), "sumAll", []string{"a"}},
	} {
		plan := &Plan{Objects: map[string]*ObjectPlan{}, BatchFusedPrefetch: true}
		for _, o := range c.objs {
			plan.Objects[o] = &ObjectPlan{Object: o, Pattern: analysis.PatternSequential, PrefetchDistance: le,
				LineElems: le, BatchLines: 4, EvictLag: 2 * le, Native: true}
		}
		compiled, err := Apply(c.prog, plan)
		if err != nil {
			t.Fatal(err)
		}
		if countNests(compiled) == 0 {
			t.Fatalf("%s: the plan tiled nothing:\n%s", c.fn, ir.Print(compiled))
		}
		srcFn, _ := c.prog.Func(c.fn)
		gotFn, _ := compiled.Func(c.fn)
		want, okWant := analysis.AnalyzeScatter(c.prog, srcFn)
		got, okGot := analysis.AnalyzeScatter(compiled, gotFn)
		if !okWant || !okGot {
			t.Fatalf("%s: scatter shape on source %v, on the tiled kernel %v:\n%s", c.fn, okWant, okGot, ir.Print(compiled))
		}
		if d := scatterDiff(want, got); d != "" {
			t.Errorf("%s: tiled kernel's scatter plan differs: %s", c.fn, d)
		}
	}
}

// scatterDiff compares two scatter plans on everything but Func and the
// Native marks codegen puts on the loop body's accesses.
func scatterDiff(a, b *analysis.ScatterPlan) string {
	show := func(sp *analysis.ScatterPlan) string {
		body := ir.CloneBlock(sp.LoopBody)
		ir.Walk(body, func(s ir.Stmt) bool {
			switch st := s.(type) {
			case *ir.Load:
				st.Native = false
			case *ir.Store:
				st.Native = false
			}
			return true
		})
		return fmt.Sprintf("object %s [%s, %s) iv %%%d acc %%%d op %v init %d inits %d loop %q\n%s\ntail %d",
			sp.Object, ir.ExprString(sp.Lo), ir.ExprString(sp.Hi), sp.IVReg, sp.AccReg, sp.Op, sp.Init,
			len(sp.Inits), sp.LoopName, ir.Print(&ir.Program{Funcs: []*ir.Func{{Body: body}}}), len(sp.Tail))
	}
	if x, y := show(a), show(b); x != y {
		return fmt.Sprintf("source:\n%s\ntiled:\n%s", x, y)
	}
	return ""
}
