package codegen

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"testing"

	"mira/internal/analysis"
	"mira/internal/exec"
	"mira/internal/ir"
	"mira/internal/rt"
	"mira/internal/sim"
)

// gatherEvent is one backend call of a gather-oracle run. A batch records
// its entries as "obj[elem]" strings.
type gatherEvent struct {
	op     string // "access", "prefetch" or "batch"
	obj    string
	field  int // field offset
	elem   int64
	write  bool
	native bool
	charge sim.Duration
	batch  []string
}

// sameAccess compares two access events, charge included.
func (e gatherEvent) sameAccess(o gatherEvent) bool {
	return e.op == o.op && e.obj == o.obj && e.field == o.field && e.elem == o.elem &&
		e.write == o.write && e.native == o.native && e.charge == o.charge
}

// gatherBackend keeps every object as 8-byte words and tapes each call. It
// charges every call a cost of its own — an access by object, element and
// nativeness, a prefetch 17, a batch 29 plus its size — so that a charge
// paid twice, or not at all, moves the clock.
type gatherBackend struct {
	objs   map[string]*ir.Object
	mem    map[string][]int64
	events []gatherEvent
}

func (b *gatherBackend) Access(clk *sim.Clock, name string, elem int64, f ir.Field, buf []byte, write bool, opts rt.AccessOpts) error {
	o, m := b.objs[name], b.mem[name]
	if elem < 0 || elem >= o.Count {
		return fmt.Errorf("%s[%d] out of range", name, elem)
	}
	w := elem*int64(o.ElemBytes/8) + int64(f.Offset/8)
	if write {
		m[w] = int64(binary.LittleEndian.Uint64(buf))
	} else {
		binary.LittleEndian.PutUint64(buf, uint64(m[w]))
	}
	charge := sim.Duration(3 + elem%7)
	if opts.Native {
		charge = 1
	}
	clk.Advance(charge)
	b.events = append(b.events, gatherEvent{op: "access", obj: name, field: f.Offset, elem: elem, write: write, native: opts.Native, charge: charge})
	return nil
}

func (b *gatherBackend) Prefetch(clk *sim.Clock, name string, elem int64, _ ir.Field) error {
	clk.Advance(17)
	b.events = append(b.events, gatherEvent{op: "prefetch", obj: name, elem: elem, charge: 17})
	return nil
}

func (b *gatherBackend) PrefetchBatch(clk *sim.Clock, entries []rt.BatchEntry) error {
	charge := sim.Duration(29 + len(entries))
	clk.Advance(charge)
	e := gatherEvent{op: "batch", charge: charge}
	for _, x := range entries {
		e.batch = append(e.batch, fmt.Sprintf("%s[%d]", x.Obj, x.Elem))
	}
	b.events = append(b.events, e)
	return nil
}

func (*gatherBackend) EvictHint(*sim.Clock, string, int64) error         { return nil }
func (*gatherBackend) Fence(*sim.Clock)                                  {}
func (*gatherBackend) BulkRead(*sim.Clock, string, int64, []byte) error  { return nil }
func (*gatherBackend) BulkWrite(*sim.Clock, string, int64, []byte) error { return nil }
func (*gatherBackend) FlushObject(*sim.Clock, string) error              { return nil }
func (*gatherBackend) Release(*sim.Clock, string) error                  { return nil }
func (b *gatherBackend) run(t *testing.T, p *ir.Program) (sim.Duration, int64) {
	t.Helper()
	b.events = nil
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

// chainCase is one random pointer-chasing loop: for i in [s, e), k chains
// load src[i].f<c> and read tgt<c%targets> at that value.
type chainCase struct {
	s, e, step int64
	k          int
	prog       *ir.Program
	plan       *Plan
	mem        map[string][]int64
}

const chainTargetCount = 48

func randomChainCase(rng *sim.RNG) chainCase {
	c := chainCase{s: int64(rng.Intn(12)), k: 1 + rng.Intn(3), step: 1}
	c.e = c.s - 3 + int64(rng.Intn(40))
	if rng.Intn(8) == 0 {
		c.step = 2 // not gathered: the per-element chain stays
	}
	targets := 1
	if c.k >= 2 && rng.Intn(3) == 0 {
		targets = 2
	}
	count := max(c.e, c.s) + 1
	b := ir.NewBuilder("chains")
	b.Object("src", 24, count, ir.F("f0", 0, 8), ir.F("f1", 8, 8), ir.F("f2", 16, 8))
	for t := 0; t < targets; t++ {
		b.IntArray(fmt.Sprintf("tgt%d", t), chainTargetCount)
	}
	fb := b.Func("main")
	acc := fb.Var(ir.C(0))
	fb.Loop(ir.C(c.s), ir.C(c.e), ir.C(c.step), func(i ir.Expr) {
		for ch := 0; ch < c.k; ch++ {
			v := fb.Load("src", i, fmt.Sprintf("f%d", ch))
			fb.Set(acc, ir.Add(ir.R(acc.ID), fb.Load(fmt.Sprintf("tgt%d", ch%targets), v, "")))
		}
	})
	fb.Return(ir.R(acc.ID))
	c.prog = b.MustProgram()

	le := []int64{1, 1, 4}[rng.Intn(3)]
	c.plan = &Plan{Objects: map[string]*ObjectPlan{
		"src": {Object: "src", Pattern: analysis.PatternSequential, LineElems: le,
			PrefetchDistance: []int64{0, le, 2 * le}[rng.Intn(3)], Native: rng.Intn(2) == 0},
	}, BatchFusedPrefetch: true}
	for t := 0; t < targets; t++ {
		name := fmt.Sprintf("tgt%d", t)
		c.plan.Objects[name] = &ObjectPlan{Object: name, Pattern: analysis.PatternIndirect, LineElems: 1,
			ChainedFrom: "src", PrefetchDistance: 1 + int64(rng.Intn(8)), GatherWindow: 1 + int64(rng.Intn(16))}
	}
	c.mem = map[string][]int64{}
	for _, o := range c.prog.Objects {
		m := make([]int64, o.Count*int64(o.ElemBytes/8))
		for i := range m {
			m[i] = int64(rng.Intn(chainTargetCount))
		}
		c.mem[o.Name] = m
	}
	return c
}

// backend gives a run its own copy of the case's memory.
func (c chainCase) backend() *gatherBackend {
	b := &gatherBackend{objs: map[string]*ir.Object{}, mem: map[string][]int64{}}
	for _, o := range c.prog.Objects {
		b.objs[o.Name] = o
		b.mem[o.Name] = slices.Clone(c.mem[o.Name])
	}
	return b
}

// expandGathers rewrites every GatherPrefetch of p into the loop it stands
// for, `for j := Lo; j < Hi; j++ { load src[j].f; prefetch target[v] }` per
// chain, each prefetch its own message.
func expandGathers(p *ir.Program) *ir.Program {
	out := ir.Clone(p)
	for _, fn := range out.Funcs {
		var expand func(body []ir.Stmt)
		expand = func(body []ir.Stmt) {
			for i, s := range body {
				switch st := s.(type) {
				case *ir.Loop:
					expand(st.Body)
				case *ir.If:
					expand(st.Then)
					expand(st.Else)
				case *ir.GatherPrefetch:
					j := fn.NumRegs
					fn.NumRegs++
					var loop []ir.Stmt
					for _, ch := range st.Chains {
						v := fn.NumRegs
						fn.NumRegs++
						loop = append(loop,
							&ir.Load{Dst: v, Obj: st.Src, Index: &ir.Reg{ID: j}, Field: ch.SrcField, Native: st.Native},
							&ir.Prefetch{Obj: ch.Target, Index: &ir.Reg{ID: v}})
					}
					body[i] = &ir.Loop{IVReg: j, Start: st.Lo, End: st.Hi, Step: ir.C(1), Body: loop}
				}
			}
		}
		expand(fn.Body)
	}
	return out
}

// targetPrefetches counts the prefetches of the case's targets a run issued,
// alone or in batches, by "obj[elem]".
func targetPrefetches(evs []gatherEvent) map[string]int {
	n := map[string]int{}
	for _, e := range evs {
		switch e.op {
		case "prefetch":
			if e.obj != "src" {
				n[fmt.Sprintf("%s[%d]", e.obj, e.elem)]++
			}
		case "batch":
			for _, x := range e.batch {
				if x[:3] != "src" {
					n[x]++
				}
			}
		}
	}
	return n
}

// TestGatherMatchesChained checks codegen's gathered chains on 2000 random
// pointer-chasing loops — empty and unaligned ranges, k of 1 to 3 chains
// over one or two targets, windows G of 1 to 16, source streams prefetched
// and tiled or not, and a non-unit step that keeps the per-element chain —
// against refChains, the per-element emission kept as the oracle:
//   - every source element in [S, E) has each chain's target prefetched
//     exactly once (the reference skips the first D), and the reference's
//     prefetches are among them;
//   - the gather's source loads read each (element, chain field) of
//     [S, E) exactly once, never reach past E, and are native only where
//     the plan makes the source native;
//   - the program's own accesses, their charges and the return value equal
//     the reference's.
//
// Then exec's charge: the same program with each GatherPrefetch expanded
// into the loop it stands for makes the same accesses with the same charges
// and prefetches the same lines, and its clock differs by exactly the posting
// costs — one batch per window against one message per line.
func TestGatherMatchesChained(t *testing.T) {
	const cases = 2000
	gathered := 0
	for seed := uint64(1); seed <= cases; seed++ {
		c := randomChainCase(sim.NewRNG(seed))
		got, err := Apply(c.prog, c.plan)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refApply(c.prog, c.plan)
		if err != nil {
			t.Fatal(err)
		}
		where := func() string {
			return fmt.Sprintf("seed %d: [%d, %d) step %d, k %d\ngathered:\n%s\nreference:\n%s", seed, c.s, c.e, c.step, c.k, ir.Print(got), ir.Print(want))
		}
		bg, bw := c.backend(), c.backend()
		tg, vg := bg.run(t, got)
		_, vw := bw.run(t, want)
		if vg != vw {
			t.Fatalf("returned %d, reference %d; %s", vg, vw, where())
		}

		// The reference's chain loads are the accesses its target
		// prefetches follow at once; the rest is the program's own.
		var body []gatherEvent
		refLoads := map[[2]int64]int{}
		for i, e := range bw.events {
			if e.op != "access" {
				continue
			}
			if i+1 < len(bw.events) && bw.events[i+1].op == "prefetch" && bw.events[i+1].obj != "src" {
				refLoads[[2]int64{e.elem, int64(e.field)}]++
				continue
			}
			body = append(body, e)
		}
		// Match the gathered run's accesses against the program's own in
		// order; what is left over are the gather's source loads.
		extra := map[[2]int64]int{}
		next := 0
		for _, e := range bg.events {
			switch {
			case e.op != "access":
			case next < len(body) && e.sameAccess(body[next]):
				next++
			case e.obj != "src" || e.write || e.native && !c.plan.Objects["src"].Native:
				t.Fatalf("access %+v is neither the program's nor a source load; %s", e, where())
			case e.elem < c.s || e.elem >= c.e:
				t.Fatalf("source load of src[%d] outside [%d, %d); %s", e.elem, c.s, c.e, where())
			default:
				extra[[2]int64{e.elem, int64(e.field)}]++
			}
		}
		if next != len(body) {
			t.Fatalf("the program's own accesses differ from the reference's after %d of %d; %s", next, len(body), where())
		}

		// Expected coverage: each chain of each source element once.
		cover, loads := map[string]int{}, map[[2]int64]int{}
		nGather := 0
		for _, fn := range got.Funcs {
			ir.Walk(fn.Body, func(s ir.Stmt) bool {
				if _, ok := s.(*ir.GatherPrefetch); ok {
					nGather++
				}
				return true
			})
		}
		if nGather > 0 {
			gathered++
			targets := len(c.prog.Objects) - 1
			for j := c.s; j < c.e; j++ {
				for ch := 0; ch < c.k; ch++ {
					v := c.mem["src"][j*3+int64(ch)]
					cover[fmt.Sprintf("tgt%d[%d]", ch%targets, v)]++
					loads[[2]int64{j, int64(8 * ch)}]++
				}
			}
		} else if c.step == 1 {
			t.Fatalf("a unit-step chained loop was not gathered; %s", where())
		}
		pg, pw := targetPrefetches(bg.events), targetPrefetches(bw.events)
		if nGather > 0 {
			if !maps.Equal(pg, cover) {
				t.Fatalf("target prefetches %v, want each chain of each element once: %v; %s", pg, cover, where())
			}
			if !maps.Equal(extra, loads) {
				t.Fatalf("source loads %v, want each (element, chain field) once: %v; %s", extra, loads, where())
			}
			for x, n := range pw {
				if pg[x] < n {
					t.Fatalf("reference prefetches %s %d times, the gather %d; %s", x, n, pg[x], where())
				}
			}
		} else if !maps.Equal(pg, pw) || !maps.Equal(extra, refLoads) {
			t.Fatalf("ungathered loop: prefetches %v, reference %v, chain loads %v, reference %v; %s", pg, pw, extra, refLoads, where())
		}

		// exec's charge against the loop the gather stands for.
		exp := expandGathers(got)
		be := c.backend()
		te, ve := be.run(t, exp)
		// posted sums what a run paid to post its target prefetches;
		// accesses lists its accesses.
		posted := func(evs []gatherEvent) (sim.Duration, []gatherEvent) {
			var d sim.Duration
			var acc []gatherEvent
			for _, e := range evs {
				switch {
				case e.op == "access":
					acc = append(acc, e)
				case e.op == "prefetch" && e.obj != "src", e.op == "batch" && e.batch[0][:3] != "src":
					d += e.charge
				}
			}
			return d, acc
		}
		batched, ag := posted(bg.events)
		single, ae := posted(be.events)
		switch {
		case ve != vg:
			t.Fatalf("expanded returned %d, gathered %d; %s", ve, vg, where())
		case !slices.EqualFunc(ag, ae, gatherEvent.sameAccess):
			t.Fatalf("expanded accesses differ from the gather's; %s", where())
		case !maps.Equal(targetPrefetches(be.events), pg):
			t.Fatalf("expanded prefetches differ from the gather's; %s", where())
		case tg-batched != te-single:
			t.Fatalf("gathered clock %v less its batches %v, expanded %v less its prefetches %v; %s", tg, batched, te, single, where())
		}
	}
	if gathered < cases/2 {
		t.Errorf("only %d of %d random loops were gathered", gathered, cases)
	}
}
