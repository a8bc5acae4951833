package exec_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mira/internal/exec"
	"mira/internal/ir"
	"mira/internal/profile"
	"mira/internal/rt"
	"mira/internal/sim"
)

// memBackend is a by-name-only exec.Backend over plain byte slices: no
// handles, so the resolved interpreter takes the fallback every backend but
// the Mira runtime gets. Every call is taped and charged a cost that depends
// on its arguments, so a call made with the wrong element, at the wrong time
// or in the wrong order shows up in the tape or on the clock; an element out
// of range is an error, so runs end in backend errors as well as interpreter
// ones.
type memBackend struct {
	t      *tape
	objs   map[string]*memObject
	misses int64
}

type memObject struct {
	elemBytes int
	data      []byte
}

func newMemBackend(p *ir.Program, t *tape) *memBackend {
	m := &memBackend{t: t, objs: map[string]*memObject{}}
	for _, o := range p.Objects {
		data := make([]byte, o.SizeBytes())
		for i := range data {
			data[i] = byte(i*7 + len(o.Name))
		}
		m.objs[o.Name] = &memObject{elemBytes: o.ElemBytes, data: data}
	}
	return m
}

func (m *memBackend) slice(name string, elem int64, off, n int) ([]byte, error) {
	o, ok := m.objs[name]
	if !ok {
		return nil, fmt.Errorf("mem: unknown object %q", name)
	}
	if elem < 0 || elem >= int64(len(o.data)/o.elemBytes) {
		return nil, fmt.Errorf("mem: %s[%d] out of range", name, elem)
	}
	lo := int(elem)*o.elemBytes + off
	if lo+n > len(o.data) {
		return nil, fmt.Errorf("mem: %s[%d] +%d bytes out of range", name, elem, n)
	}
	return o.data[lo : lo+n], nil
}

func (m *memBackend) move(name string, elem int64, off int, buf []byte, write bool) error {
	s, err := m.slice(name, elem, off, len(buf))
	if err != nil {
		return err
	}
	if write {
		copy(s, buf)
	} else {
		copy(buf, s)
	}
	return nil
}

func (m *memBackend) Access(clk *sim.Clock, name string, elem int64, field ir.Field, buf []byte, write bool, opts rt.AccessOpts) error {
	m.t.add(clk, event{op: "access", obj: name, elem: elem, field: field, write: write, opts: opts, n: len(buf)})
	clk.Advance(sim.Duration(5 + elem&3))
	if elem&3 == 0 {
		m.misses++
	}
	return m.move(name, elem, field.Offset, buf, write)
}

func (m *memBackend) Prefetch(clk *sim.Clock, name string, elem int64, field ir.Field) error {
	m.t.add(clk, event{op: "prefetch", obj: name, elem: elem, field: field})
	clk.Advance(2)
	_, err := m.slice(name, elem, 0, 0)
	return err
}

func (m *memBackend) PrefetchBatch(clk *sim.Clock, entries []rt.BatchEntry) error {
	m.t.add(clk, event{op: "batch", n: len(entries)})
	for _, e := range entries {
		m.t.add(clk, event{op: "batch.entry", obj: e.Obj, elem: e.Elem, field: e.Field})
	}
	clk.Advance(sim.Duration(3 * len(entries)))
	return nil
}

func (m *memBackend) EvictHint(clk *sim.Clock, name string, elem int64) error {
	m.t.add(clk, event{op: "evict", obj: name, elem: elem})
	return nil // free: chargeRuntime must cope with a zero duration
}

func (m *memBackend) Fence(clk *sim.Clock) {
	m.t.add(clk, event{op: "fence"})
	clk.Advance(11)
}

func (m *memBackend) BulkRead(clk *sim.Clock, name string, elem int64, buf []byte) error {
	m.t.add(clk, event{op: "bulk", obj: name, elem: elem, n: len(buf)})
	clk.Advance(sim.Duration(len(buf)))
	return m.move(name, elem, 0, buf, false)
}

func (m *memBackend) BulkWrite(clk *sim.Clock, name string, elem int64, buf []byte) error {
	m.t.add(clk, event{op: "bulk", obj: name, elem: elem, n: len(buf), write: true})
	clk.Advance(sim.Duration(len(buf)))
	return m.move(name, elem, 0, buf, true)
}

func (m *memBackend) FlushObject(clk *sim.Clock, name string) error {
	m.t.add(clk, event{op: "flush", obj: name})
	return nil
}

func (m *memBackend) Release(clk *sim.Clock, name string) error {
	m.t.add(clk, event{op: "release", obj: name})
	clk.Advance(1)
	return nil
}

func (m *memBackend) MissCount() int64 { return m.misses }

// progGen builds one random program: three objects (an int array, a float
// array, a struct of every width the scalar codec carries), two helper
// functions with parameters and an entry that calls them; bounded loops,
// nested ifs, int/float mixes, the occasional zero divisor, float left of a
// modulo, zero step, out-of-range index and early Return inside a loop, hint
// statements and small tensor intrinsics. Programs always validate; about a
// third of them end in an error.
type progGen struct {
	rng *rand.Rand
	fb  *ir.FuncBuilder
	// ints are registers that only ever hold integers (loop variables, loads
	// of integer fields, integer expressions): what index expressions are
	// built from. any may hold either.
	ints, any []int
	params    []string
	callees   []callee
	loops     int
}

type callee struct {
	name   string
	params int
}

const (
	intElems    = 16
	floatElems  = 16
	structElems = 8
)

var structFields = []ir.Field{ir.F("b1", 0, 1), ir.F("h2", 2, 2), ir.F("w4", 4, 4), ir.F("q8", 8, 8), ir.FF("fq", 16)}

func randomProgram(seed int64) *ir.Program {
	rng := rand.New(rand.NewSource(seed))
	b := ir.NewBuilder(fmt.Sprintf("random%d", seed))
	b.IntArray("ia", intElems)
	b.FloatArray("fa", floatElems)
	b.Object("st", 24, structElems, structFields...)
	var callees []callee
	for i, params := range [][]string{{"n"}, {"x", "y"}, nil} {
		name := fmt.Sprintf("f%d", i)
		if params == nil {
			name = "main"
		}
		g := &progGen{rng: rng, fb: b.Func(name, params...), params: params, callees: callees}
		g.block(0, 6+rng.Intn(8))
		if rng.Intn(3) > 0 {
			g.fb.Return(g.expr(2, false))
		}
		callees = append(callees, callee{name, len(params)})
	}
	b.SetEntry("main")
	p := b.MustProgram()
	for _, f := range p.Funcs {
		compilerMarks(rng, f.Body)
	}
	return p
}

// compilerMarks does to a built body what only codegen does to real ones: it
// marks some accesses native, some stores NoFetch, and turns some fences into
// releases (the builder emits neither).
func compilerMarks(rng *rand.Rand, body []ir.Stmt) {
	for i, s := range body {
		switch st := s.(type) {
		case *ir.Load:
			st.Native = rng.Intn(4) == 0
		case *ir.Store:
			st.Native, st.NoFetch = rng.Intn(4) == 0, rng.Intn(4) == 0
		case *ir.Fence:
			if rng.Intn(2) == 0 {
				body[i] = &ir.Release{Obj: []string{"ia", "fa", "st"}[rng.Intn(3)]}
			}
		case *ir.Loop:
			compilerMarks(rng, st.Body)
		case *ir.If:
			compilerMarks(rng, st.Then)
			compilerMarks(rng, st.Else)
		}
	}
}

func (g *progGen) pick(regs []int) ir.Expr { return ir.R(regs[g.rng.Intn(len(regs))]) }

// expr builds an expression of at most the given depth; intOnly keeps floats
// (constants, float-holding registers, parameters) out of it.
func (g *progGen) expr(depth int, intOnly bool) ir.Expr {
	if depth == 0 || g.rng.Intn(3) == 0 {
		switch k := g.rng.Intn(6); {
		case k == 0 && !intOnly:
			return ir.CF(float64(g.rng.Intn(9)-2) / 2)
		case k == 1 && !intOnly && len(g.any) > 0:
			return g.pick(g.any)
		case k == 2 && !intOnly && len(g.params) > 0:
			return ir.P(g.params[g.rng.Intn(len(g.params))])
		case k <= 3 && len(g.ints) > 0:
			return g.pick(g.ints)
		default:
			return ir.C(int64(g.rng.Intn(12) - 3))
		}
	}
	if g.rng.Intn(5) == 0 {
		return &ir.Un{Op: ir.UnOp(g.rng.Intn(3)), A: g.expr(depth-1, intOnly)}
	}
	op := ir.BinOp(g.rng.Intn(int(ir.OpMax) + 1))
	a, b := g.expr(depth-1, intOnly), g.expr(depth-1, intOnly)
	if (op == ir.OpDiv || op == ir.OpMod) && g.rng.Intn(6) > 0 {
		b = ir.C(int64(1 + g.rng.Intn(5))) // mostly a safe divisor
		switch {
		case intOnly:
		case g.rng.Intn(6) == 0:
			a = g.floatExpr() // division's float path; modulo's error
		case op == ir.OpMod:
			a = g.expr(depth-1, true) // modulo is undefined on floats
		}
	}
	return &ir.Bin{Op: op, A: a, B: b}
}

// floatExpr is a float constant or, when there is one, a register that may
// hold a float.
func (g *progGen) floatExpr() ir.Expr {
	if len(g.any) > 0 && g.rng.Intn(2) == 0 {
		return g.pick(g.any)
	}
	return ir.CF(float64(g.rng.Intn(9)-2) / 2)
}

// index builds an element index for an object of n elements: nearly always
// in range.
func (g *progGen) index(n int64) ir.Expr {
	x := g.expr(2, true)
	if g.rng.Intn(60) == 0 {
		return x
	}
	return ir.Mod(ir.Abs(x), ir.C(n))
}

// site picks an object, its element count and one of its fields.
func (g *progGen) site() (obj string, n int64, field ir.Field) {
	switch g.rng.Intn(3) {
	case 0:
		return "ia", intElems, ir.Field{Bytes: 8}
	case 1:
		return "fa", floatElems, ir.Field{Bytes: 8, Float: true}
	default:
		return "st", structElems, structFields[g.rng.Intn(len(structFields))]
	}
}

func (g *progGen) tensor() ir.TensorRef {
	return ir.T("fa", g.index(floatElems-4), 2, 2)
}

func (g *progGen) block(depth, n int) {
	for i := 0; i < n; i++ {
		g.stmt(depth)
	}
}

func (g *progGen) stmt(depth int) {
	fb := g.fb
	switch k := g.rng.Intn(20); {
	case k < 3:
		g.ints = append(g.ints, fb.Var(g.expr(3, true)).ID)
	case k < 5:
		g.any = append(g.any, fb.Var(g.expr(3, false)).ID)
	case k == 5 && len(g.any) > 0:
		fb.Set(g.pick(g.any).(*ir.Reg), g.expr(3, false))
	case k == 6 && len(g.ints) > 0:
		fb.Set(g.pick(g.ints).(*ir.Reg), g.expr(3, true))
	case k < 9:
		obj, n, f := g.site()
		dst := fb.Load(obj, g.index(n), f.Name).(*ir.Reg).ID
		if f.Float {
			g.any = append(g.any, dst)
		} else {
			g.ints = append(g.ints, dst)
		}
	case k < 11:
		obj, n, f := g.site()
		fb.Store(obj, g.index(n), f.Name, g.expr(2, false))
	case k < 13 && depth < 3:
		thenN, elseN := 1+g.rng.Intn(3), g.rng.Intn(3)
		ints, any := len(g.ints), len(g.any)
		var elseFn func()
		if elseN > 0 {
			elseFn = func() { g.block(depth+1, elseN); g.ints, g.any = g.ints[:ints], g.any[:any] }
		}
		fb.If(g.expr(2, false), func() { g.block(depth+1, thenN); g.ints, g.any = g.ints[:ints], g.any[:any] }, elseFn)
	case k < 15 && depth < 3 && g.loops < 2:
		step := ir.C(int64(1 + g.rng.Intn(2)))
		if g.rng.Intn(30) == 0 {
			step = ir.C(0)
		}
		end := ir.C(int64(2 + g.rng.Intn(6)))
		if g.rng.Intn(3) == 0 {
			end = ir.Mod(ir.Abs(g.expr(2, true)), ir.C(6))
		}
		ints, any := len(g.ints), len(g.any)
		g.loops++
		fb.Loop(ir.C(int64(g.rng.Intn(3))), end, step, func(iv ir.Expr) {
			g.ints = append(g.ints, iv.(*ir.Reg).ID)
			g.block(depth+1, 2+g.rng.Intn(5))
		})
		g.loops--
		g.ints, g.any = g.ints[:ints], g.any[:any]
	case k == 15 && len(g.callees) > 0:
		c := g.callees[g.rng.Intn(len(g.callees))]
		args := make([]ir.Expr, c.params)
		for i := range args {
			args[i] = g.expr(2, false)
		}
		if g.rng.Intn(2) == 0 {
			fb.Call(c.name, args...)
		} else {
			g.any = append(g.any, fb.CallRet(c.name, args...).(*ir.Reg).ID)
		}
	case k == 16 && depth > 0:
		if g.rng.Intn(4) == 0 {
			fb.Return(nil)
		} else {
			fb.Return(g.expr(2, false))
		}
	case k == 17:
		obj, n, f := g.site()
		switch g.rng.Intn(4) {
		case 0:
			fb.Prefetch(obj, g.index(n), f.Name)
		case 1:
			obj2, n2, f2 := g.site()
			fb.BatchPrefetch(ir.PrefetchRef{Obj: obj, Index: g.index(n), Field: f.Name},
				ir.PrefetchRef{Obj: obj2, Index: g.index(n2), Field: f2.Name})
		case 2:
			fb.Evict(obj, g.index(n))
		default:
			fb.Fence()
		}
	case k == 18:
		switch g.rng.Intn(4) {
		case 0:
			fb.MatMul(g.tensor(), g.tensor(), g.tensor())
		case 1:
			fb.Binary(ir.IntrAdd, g.tensor(), g.tensor(), g.tensor())
		case 2:
			fb.Unary(ir.IntrCopy, g.tensor(), g.tensor())
		default:
			fb.Zero(g.tensor())
		}
	default:
		g.ints = append(g.ints, fb.Var(g.expr(2, true)).ID)
	}
}

// TestResolvedMatchesReferenceOnRandomPrograms: seeded random programs run
// under both interpreters against the by-name fake backend; return value or
// error text, final clock, the whole tape (call, arguments, clock at the
// call, yields so far), the collected profile and the final memory must be
// identical.
func TestResolvedMatchesReferenceOnRandomPrograms(t *testing.T) {
	const programs = 1000
	failed := 0
	for seed := int64(1); seed <= programs; seed++ {
		p := randomProgram(seed)
		run := func(reference bool) (outcome, *memBackend) {
			tp := &tape{}
			be := newMemBackend(p, tp)
			col := profile.NewCollector()
			opt := exec.Options{ComputeOp: 3, FloatOp: 2, Collector: col, Yield: tp.yield}
			var ex exec.Runner
			var err error
			if reference {
				ex, err = exec.NewReference(p, be, opt)
			} else {
				ex, err = exec.New(p, be, opt)
			}
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			clk := sim.NewClock(0)
			out := outcome{tape: tp}
			ret, err := ex.Run(clk)
			if err != nil {
				out.err = err.Error()
			}
			out.ret, out.ran, out.profile = ret, clk.Now(), col.String()
			return out, be
		}
		want, wantMem := run(true)
		got, gotMem := run(false)
		name := fmt.Sprintf("seed %d", seed)
		sameRun(t, name, want, got)
		for obj, o := range wantMem.objs {
			if !bytes.Equal(o.data, gotMem.objs[obj].data) {
				t.Errorf("%s: object %q differs", name, obj)
			}
		}
		if want.err != "" {
			failed++
		}
		if t.Failed() {
			t.Fatalf("%s: program:\n%s", name, ir.Print(p))
		}
	}
	// Both halves need exercising: runs that finish and runs that fail.
	if failed < programs/10 || failed > programs*9/10 {
		t.Errorf("%d of %d programs ended in an error; the generator should produce a mix", failed, programs)
	}
}
