package codegen

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"mira/internal/analysis"
	"mira/internal/cache"
	"mira/internal/exec"
	"mira/internal/farmem"
	"mira/internal/ir"
	"mira/internal/rt"
	"mira/internal/sim"
	"mira/internal/swap"
)

// aheadTap drives a runtime by name and tapes what an intrinsic run asks of
// it. Every call but PrefetchBatch is taped with its arguments and the time
// the executor spent since the previous such call, less the time prefetches
// took: compute, FloatOp charges included. A PrefetchBatch tapes its entries
// and closes nothing; a BulkWrite — every intrinsic ends with exactly one, of
// its destination — closes the current intrinsic's batches.
type aheadTap struct {
	r       *rt.Runtime
	calls   []string
	batches [][][]rt.BatchEntry // per intrinsic, its PrefetchBatch calls
	open    [][]rt.BatchEntry
	last    sim.Time     // when the previous call returned
	spent   sim.Duration // executor time before this call's prefetches
}

func (a *aheadTap) tape(clk *sim.Clock, format string, args ...any) func() {
	gap := a.spent + clk.Now().Sub(a.last)
	a.spent = 0
	a.calls = append(a.calls, fmt.Sprintf(format, args...)+fmt.Sprintf(" after %v", gap))
	return func() { a.last = clk.Now() }
}

func (a *aheadTap) Access(clk *sim.Clock, name string, elem int64, f ir.Field, buf []byte, write bool, opts rt.AccessOpts) error {
	defer a.tape(clk, "access %s[%d]+%d %d write %v %+v", name, elem, f.Offset, len(buf), write, opts)()
	return a.r.Access(clk, name, elem, f, buf, write, opts)
}

func (a *aheadTap) Prefetch(clk *sim.Clock, name string, elem int64, f ir.Field) error {
	defer a.tape(clk, "prefetch %s[%d]", name, elem)()
	return a.r.Prefetch(clk, name, elem, f)
}

func (a *aheadTap) PrefetchBatch(clk *sim.Clock, entries []rt.BatchEntry) error {
	a.spent += clk.Now().Sub(a.last)
	a.open = append(a.open, slices.Clone(entries))
	err := a.r.PrefetchBatch(clk, entries)
	a.last = clk.Now()
	return err
}

func (a *aheadTap) EvictHint(clk *sim.Clock, name string, elem int64) error {
	defer a.tape(clk, "evict %s[%d]", name, elem)()
	return a.r.EvictHint(clk, name, elem)
}

func (a *aheadTap) Fence(clk *sim.Clock) {
	defer a.tape(clk, "fence")()
	a.r.Fence(clk)
}

func (a *aheadTap) BulkRead(clk *sim.Clock, name string, elem int64, buf []byte) error {
	defer a.tape(clk, "read %s[%d] %d", name, elem, len(buf))()
	return a.r.BulkRead(clk, name, elem, buf)
}

func (a *aheadTap) BulkWrite(clk *sim.Clock, name string, elem int64, buf []byte) error {
	defer a.tape(clk, "write %s[%d] %d %x", name, elem, len(buf), buf)()
	a.batches, a.open = append(a.batches, a.open), nil
	return a.r.BulkWrite(clk, name, elem, buf)
}

func (a *aheadTap) FlushObject(clk *sim.Clock, name string) error {
	defer a.tape(clk, "flush %s", name)()
	return a.r.FlushObject(clk, name)
}

func (a *aheadTap) Release(clk *sim.Clock, name string) error {
	defer a.tape(clk, "release %s", name)()
	return a.r.Release(clk, name)
}

// aheadCase is one random run of intrinsics over float objects placed in a
// line section, in swap or in local memory.
type aheadCase struct {
	prog  *ir.Program
	plan  *Plan
	cfg   rt.Config
	data  map[string][]byte
	place map[string]string // "line", "swap" or "local"
}

func randomAheadCase(rng *sim.RNG) aheadCase {
	c := aheadCase{data: map[string][]byte{}, place: map[string]string{}}
	b := ir.NewBuilder("ahead")
	nobj := 3 + rng.Intn(4)
	names := make([]string, nobj)
	count := map[string]int64{}
	for i := range names {
		names[i] = fmt.Sprintf("m%d", i)
		count[names[i]] = 144 + int64(rng.Intn(1400)) // a 12x12 tensor fits
		b.FloatArray(names[i], count[names[i]])
		c.place[names[i]] = []string{"local", "line", "line", "swap", "swap"}[rng.Intn(5)]
	}
	c.place[names[0]] = "line" // some planned object prefetches
	fb := b.Func("main")
	tensor := func(rows, cols int64) ir.TensorRef {
		name := names[rng.Intn(nobj)]
		return ir.T(name, ir.C(int64(rng.Intn(int(count[name]-rows*cols+1)))), rows, cols)
	}
	dim := func() int64 { return 1 + int64(rng.Intn(12)) }
	var prev ir.TensorRef
	for n := 3 + rng.Intn(8); n > 0; n-- {
		kind := ir.IntrKind(rng.Intn(int(ir.IntrZero) + 1))
		r, k := dim(), dim()
		var a ir.TensorRef
		if prev.Obj != "" && kind != ir.IntrZero && rng.Intn(3) == 0 {
			a, r, k = prev, prev.Rows, prev.Cols // the last destination is the next A
		} else {
			a = tensor(r, k)
		}
		switch kind {
		case ir.IntrMatMul:
			n := dim()
			prev = tensor(r, n)
			fb.MatMul(prev, a, tensor(k, n))
		case ir.IntrMatMulT:
			n := dim()
			prev = tensor(r, n)
			fb.MatMulT(prev, a, tensor(n, k))
		case ir.IntrAdd:
			prev = tensor(r, k)
			fb.Binary(kind, prev, a, tensor(r, k))
		case ir.IntrZero:
			prev = tensor(r, k)
			fb.Zero(prev)
		default:
			prev = tensor(r, k)
			fb.Unary(kind, prev, a)
		}
	}
	c.prog = b.MustProgram()

	lb := []int{64, 256, 2048}[rng.Intn(3)]
	lines := 2 * (1 + rng.Intn(6))
	sec := cache.Config{Name: "line", Structure: cache.Structure(rng.Intn(3)), Ways: 2, LineBytes: lb, SizeBytes: int64(lines * lb)}
	c.cfg = rt.Config{
		LocalBudget: 8 << 20,
		SwapPool:    int64(1+rng.Intn(4)) * swap.PageBytes,
		Sections:    []rt.SectionSpec{{Cache: sec}},
		Placements:  map[string]rt.Placement{},
	}
	c.plan = &Plan{Objects: map[string]*ObjectPlan{}}
	for _, o := range c.prog.Objects {
		switch c.place[o.Name] {
		case "local":
			o.Local = true
		case "line":
			c.cfg.Placements[o.Name] = rt.Placement{Kind: rt.PlaceSection, Section: 0}
			le := int64(lb / 8)
			c.plan.Objects[o.Name] = &ObjectPlan{Object: o.Name, Pattern: analysis.PatternSequential, LineElems: le, PrefetchDistance: le}
		case "swap":
			c.cfg.Placements[o.Name] = rt.Placement{Kind: rt.PlaceSwap}
		}
		buf := make([]byte, o.SizeBytes())
		for i := 0; i < len(buf); i += 8 {
			binary.LittleEndian.PutUint64(buf[i:], math.Float64bits(2*rng.Float64()-1))
		}
		c.data[o.Name] = buf
	}
	return c
}

// run executes p over a fresh runtime of the case through the tap and
// returns the tap and every object's final bytes.
func (c aheadCase) run(t *testing.T, p *ir.Program) (*aheadTap, map[string][]byte) {
	t.Helper()
	r, err := rt.New(c.cfg, farmem.NewNode(farmem.NodeConfig{Capacity: 1 << 24, CPUSlowdown: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Bind(p); err != nil {
		t.Fatal(err)
	}
	for name, data := range c.data {
		if err := r.InitObject(name, data); err != nil {
			t.Fatal(err)
		}
	}
	tap := &aheadTap{r: r}
	ex, err := exec.New(p, tap, exec.Options{ComputeOp: 1, FloatOp: 3})
	if err != nil {
		t.Fatal(err)
	}
	clk := sim.NewClock(0)
	if _, err := ex.Run(clk); err != nil {
		t.Fatalf("run: %v\n%s", err, ir.Print(p))
	}
	if err := r.FlushAll(clk); err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, o := range p.Objects {
		if out[o.Name], err = r.DumpObject(o.Name); err != nil {
			t.Fatal(err)
		}
	}
	return tap, out
}

// wantAhead is what intrinsic i of body must prefetch ahead: the read
// operands of the next intrinsic that reads far memory, less local objects
// and the objects written before it reads them, by i or by an intrinsic in
// between; nothing when i reads no far memory right after another
// intrinsic, which prefetched that successor already.
func (c aheadCase) wantAhead(body []ir.Stmt, i int) []ir.PrefetchRange {
	far := func(obj string) bool { return obj != "" && c.place[obj] != "local" }
	reads := func(st *ir.Intrinsic) []ir.TensorRef {
		switch st.Kind {
		case ir.IntrZero:
			return nil
		case ir.IntrMatMul, ir.IntrMatMulT:
			return []ir.TensorRef{st.A, st.B, st.Dst}
		case ir.IntrAdd:
			return []ir.TensorRef{st.A, st.B}
		}
		return []ir.TensorRef{st.A}
	}
	readsFar := func(st *ir.Intrinsic) bool {
		return slices.ContainsFunc(reads(st), func(t ir.TensorRef) bool { return far(t.Obj) })
	}
	cur := body[i].(*ir.Intrinsic)
	if i > 0 && !readsFar(cur) {
		return nil
	}
	written := map[string]bool{cur.Dst.Obj: true}
	for _, s := range body[i+1:] {
		next := s.(*ir.Intrinsic)
		if !readsFar(next) {
			written[next.Dst.Obj] = true
			continue
		}
		var out []ir.PrefetchRange
		for _, t := range reads(next) {
			if !far(t.Obj) || written[t.Obj] {
				continue
			}
			step := int64(swap.PageBytes / 8)
			if op := c.plan.Objects[t.Obj]; op != nil {
				step = op.LineElems
			}
			out = append(out, ir.PrefetchRange{Obj: t.Obj, Off: t.Off, Elems: t.Elems(), Step: step})
		}
		return out
	}
	return nil
}

// TestAheadMatchesPlainIntrinsics runs 400 seeded random intrinsic
// sequences — every kind, unaligned offsets and shapes, a destination that
// is often the next source, over objects in a line section, in swap and in
// local memory — compiled with their operands ahead and with those stripped.
// The operands ahead must change nothing but prefetching: the same bytes in
// every object, the same backend calls with the same arguments (written
// bytes included) in the same order, and the same executor time between
// them, FloatOp charges included. Each intrinsic's Ahead is exactly
// wantAhead's, and what it posts is exactly the lines and pages those ranges
// touch, each once, none past a range's end, in doorbells of at most 16.
func TestAheadMatchesPlainIntrinsics(t *testing.T) {
	rng := sim.NewRNG(36)
	posted, swapPosted := 0, 0
	for seed := 0; seed < 400; seed++ {
		c := randomAheadCase(rng)
		name := fmt.Sprintf("case %d", seed)
		got, err := Apply(c.prog, c.plan)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plain := ir.Clone(got)
		body := got.Funcs[0].Body
		for i, s := range plain.Funcs[0].Body {
			st := s.(*ir.Intrinsic)
			if want := c.wantAhead(body, i); !slices.EqualFunc(st.Ahead, want, func(a, b ir.PrefetchRange) bool {
				return a.Obj == b.Obj && ir.ExprString(a.Off) == ir.ExprString(b.Off) && a.Elems == b.Elems && a.Step == b.Step
			}) {
				t.Fatalf("%s: intrinsic %d prefetches %+v ahead, want %+v\n%s", name, i, st.Ahead, want, ir.Print(got))
			}
			st.Ahead = nil
		}
		for _, quiet := range []*Plan{{Objects: c.plan.Objects, SuppressPrefetchStmts: true}, {Objects: map[string]*ObjectPlan{}}} {
			if q, err := Apply(c.prog, quiet); err != nil || ir.Print(q) != ir.Print(plain) {
				t.Fatalf("%s: a plan that does not prefetch gave its intrinsics operands ahead (%v)", name, err)
			}
		}

		aheadTap, aheadMem := c.run(t, got)
		plainTap, plainMem := c.run(t, plain)
		for obj, want := range plainMem {
			if !bytes.Equal(aheadMem[obj], want) {
				t.Fatalf("%s: %s differs with operands ahead", name, obj)
			}
		}
		if !slices.Equal(aheadTap.calls, plainTap.calls) {
			for i := range min(len(aheadTap.calls), len(plainTap.calls)) {
				if aheadTap.calls[i] != plainTap.calls[i] {
					t.Fatalf("%s: call %d is %.200s with operands ahead, %.200s without", name, i, aheadTap.calls[i], plainTap.calls[i])
				}
			}
			t.Fatalf("%s: %d calls with operands ahead, %d without", name, len(aheadTap.calls), len(plainTap.calls))
		}
		for _, bs := range plainTap.batches {
			if len(bs) > 0 {
				t.Fatalf("%s: the plain program prefetched", name)
			}
		}
		for i, s := range body {
			var want, sent []string
			ahead := s.(*ir.Intrinsic).Ahead
			for _, r := range ahead {
				off := r.Off.(*ir.Const).I
				seen := map[int64]bool{}
				for e := off; e < off+r.Elems; e++ {
					if u := e / r.Step; !seen[u] {
						seen[u] = true
						want = append(want, fmt.Sprintf("%s:%d", r.Obj, u))
					}
				}
			}
			for _, batch := range aheadTap.batches[i] {
				if len(batch) == 0 || len(batch) > 16 {
					t.Fatalf("%s: intrinsic %d posted a doorbell of %d entries", name, i, len(batch))
				}
				for _, e := range batch {
					if !slices.ContainsFunc(ahead, func(r ir.PrefetchRange) bool {
						off := r.Off.(*ir.Const).I
						return r.Obj == e.Obj && e.Elem >= off && e.Elem < off+r.Elems
					}) {
						t.Fatalf("%s: intrinsic %d posted %s[%d], in none of its ranges ahead", name, i, e.Obj, e.Elem)
					}
					step := int64(swap.PageBytes / 8)
					if op := c.plan.Objects[e.Obj]; op != nil {
						step = op.LineElems
					} else {
						swapPosted++
					}
					sent = append(sent, fmt.Sprintf("%s:%d", e.Obj, e.Elem/step))
					posted++
				}
			}
			if !slices.Equal(sent, want) {
				t.Fatalf("%s: intrinsic %d posted lines and pages %v, want %v", name, i, sent, want)
			}
		}
	}
	if posted == 0 || swapPosted == 0 {
		t.Errorf("%d entries posted ahead, %d of them pages: the cases should post both", posted, swapPosted)
	}
}
