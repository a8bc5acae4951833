package ir

import (
	"strings"
	"testing"
)

// buildGraphExample constructs the Fig. 4 graph-traversal program:
//
//	for i in 0..nEdges: nodes[edges[i].from].count++; nodes[edges[i].to].count++
func buildGraphExample(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("graph")
	b.Object("edges", 16, 1000, F("from", 0, 8), F("to", 8, 8))
	b.Object("nodes", 128, 100, F("count", 0, 8))
	fb := b.Func("traverse")
	fb.Loop(C(0), C(1000), C(1), func(i Expr) {
		from := fb.Load("edges", i, "from")
		to := fb.Load("edges", i, "to")
		c1 := fb.Load("nodes", from, "count")
		fb.Store("nodes", from, "count", Add(c1, C(1)))
		c2 := fb.Load("nodes", to, "count")
		fb.Store("nodes", to, "count", Add(c2, C(1)))
	})
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildAndValidateGraphExample(t *testing.T) {
	p := buildGraphExample(t)
	if p.Entry != "traverse" {
		t.Fatalf("entry = %q, want traverse", p.Entry)
	}
	f, err := p.EntryFunc()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Body) != 1 {
		t.Fatalf("body has %d stmts, want 1 loop", len(f.Body))
	}
	loop, ok := f.Body[0].(*Loop)
	if !ok {
		t.Fatalf("body[0] is %T, want *Loop", f.Body[0])
	}
	if len(loop.Body) != 6 {
		t.Fatalf("loop body has %d stmts, want 6", len(loop.Body))
	}
}

func TestObjectFieldLookup(t *testing.T) {
	p := buildGraphExample(t)
	o, ok := p.Object("edges")
	if !ok {
		t.Fatal("edges object missing")
	}
	if o.SizeBytes() != 16000 {
		t.Fatalf("SizeBytes = %d, want 16000", o.SizeBytes())
	}
	f, ok := o.FieldByName("to")
	if !ok || f.Offset != 8 || f.Bytes != 8 {
		t.Fatalf("field to = %+v, %v", f, ok)
	}
	if _, ok := o.FieldByName("nope"); ok {
		t.Fatal("bogus field resolved")
	}
	whole, ok := o.FieldByName("")
	if !ok || whole.Bytes != 16 || whole.Offset != 0 {
		t.Fatalf("whole-element field = %+v", whole)
	}
}

func TestValidateCatchesBadPrograms(t *testing.T) {
	mk := func(mutate func(b *Builder, fb *FuncBuilder)) error {
		b := NewBuilder("p")
		b.IntArray("a", 10)
		fb := b.Func("main")
		mutate(b, fb)
		_, err := b.Program()
		return err
	}

	if err := mk(func(b *Builder, fb *FuncBuilder) {
		fb.Load("missing", C(0), "")
	}); err == nil {
		t.Error("load of undefined object accepted")
	}

	if err := mk(func(b *Builder, fb *FuncBuilder) {
		fb.Load("a", C(0), "ghost")
	}); err == nil {
		t.Error("load of undefined field accepted")
	}

	if err := mk(func(b *Builder, fb *FuncBuilder) {
		fb.Call("nothere")
	}); err == nil {
		t.Error("call of undefined function accepted")
	}

	if err := mk(func(b *Builder, fb *FuncBuilder) {
		fb.Store("a", P("ghostparam"), "", C(1))
	}); err == nil {
		t.Error("reference to undefined parameter accepted")
	}

	if err := mk(func(b *Builder, fb *FuncBuilder) {
		fb.emit(&Assign{Dst: 99, Val: C(1)})
	}); err == nil {
		t.Error("out-of-range register accepted")
	}
}

func TestValidateObjectShape(t *testing.T) {
	b := NewBuilder("p")
	b.Object("bad", 8, 4, F("f", 4, 8)) // field overruns element
	b.Func("main")
	if _, err := b.Program(); err == nil {
		t.Fatal("field overrunning element accepted")
	}

	b2 := NewBuilder("p")
	b2.IntArray("dup", 1)
	b2.IntArray("dup", 1)
	b2.Func("main")
	if _, err := b2.Program(); err == nil {
		t.Fatal("duplicate object accepted")
	}
}

func TestValidateCallArity(t *testing.T) {
	b := NewBuilder("p")
	b.Func("callee", "x", "y")
	fb := b.Func("main")
	fb.Call("callee", C(1)) // one arg, needs two
	b.SetEntry("main")
	if _, err := b.Program(); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestValidateMatMulDims(t *testing.T) {
	b := NewBuilder("p")
	b.FloatArray("m", 1000)
	fb := b.Func("main")
	fb.MatMul(T("m", C(0), 4, 4), T("m", C(16), 4, 3), T("m", C(32), 4, 4)) // K mismatch
	if _, err := b.Program(); err == nil {
		t.Fatal("matmul dim mismatch accepted")
	}
}

func TestValidateIntrinsicNeedsFloatObject(t *testing.T) {
	b := NewBuilder("p")
	b.IntArray("ints", 64)
	fb := b.Func("main")
	fb.Unary(IntrCopy, T("ints", C(0), 4, 4), T("ints", C(16), 4, 4))
	if _, err := b.Program(); err == nil {
		t.Fatal("intrinsic over int object accepted")
	}
}

// An intrinsic's range ahead must name a far object, cover some elements in
// positive steps, and have a valid offset.
func TestValidateIntrinsicAhead(t *testing.T) {
	for _, c := range []struct {
		name  string
		r     PrefetchRange
		valid bool
	}{
		{"line steps", PrefetchRange{Obj: "m", Off: C(3), Elems: 10, Step: 4}, true},
		{"undefined object", PrefetchRange{Obj: "nope", Off: C(0), Elems: 4, Step: 4}, false},
		{"local object", PrefetchRange{Obj: "loc", Off: C(0), Elems: 4, Step: 4}, false},
		{"no elements", PrefetchRange{Obj: "m", Off: C(0), Elems: 0, Step: 4}, false},
		{"no step", PrefetchRange{Obj: "m", Off: C(0), Elems: 4, Step: 0}, false},
		{"bad offset", PrefetchRange{Obj: "m", Off: R(9), Elems: 4, Step: 4}, false},
	} {
		b := NewBuilder("p")
		b.FloatArray("m", 64)
		b.FloatArray("loc", 64)
		fb := b.Func("main")
		fb.Unary(IntrCopy, T("m", C(0), 4, 4), T("m", C(16), 4, 4))
		p := b.MustProgram()
		p.Objects[1].Local = true
		p.Funcs[0].Body[0].(*Intrinsic).Ahead = []PrefetchRange{c.r}
		if err := Validate(p); (err == nil) != c.valid {
			t.Errorf("%s: Validate = %v, want valid %v", c.name, err, c.valid)
		}
	}
}

func TestWalkVisitsNested(t *testing.T) {
	p := buildGraphExample(t)
	f, _ := p.EntryFunc()
	var loads, stores int
	Walk(f.Body, func(s Stmt) bool {
		switch s.(type) {
		case *Load:
			loads++
		case *Store:
			stores++
		}
		return true
	})
	if loads != 4 || stores != 2 {
		t.Fatalf("walk found %d loads %d stores, want 4/2", loads, stores)
	}
}

func TestWalkPrune(t *testing.T) {
	p := buildGraphExample(t)
	f, _ := p.EntryFunc()
	count := 0
	Walk(f.Body, func(s Stmt) bool {
		count++
		_, isLoop := s.(*Loop)
		return !isLoop // prune loop bodies
	})
	if count != 1 {
		t.Fatalf("pruned walk visited %d stmts, want 1", count)
	}
}

func TestExprOps(t *testing.T) {
	e := Add(Mul(C(2), P("n")), Neg(R(0)))
	if got := ExprOps(e); got != 3 {
		t.Fatalf("ExprOps = %d, want 3", got)
	}
	if got := ExprOps(C(1)); got != 0 {
		t.Fatalf("ExprOps(const) = %d, want 0", got)
	}
}

func TestPrintContainsStructure(t *testing.T) {
	p := buildGraphExample(t)
	out := Print(p)
	for _, want := range []string{
		"program graph",
		"object edges: 1000 x 16B",
		"from@0+8",
		"func traverse()",
		"rmem.load edges[",
		"rmem.store nodes[",
		".count",
		"loop %0 = 0 .. 1000 step 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("printed IR missing %q:\n%s", want, out)
		}
	}
}

func TestPrintNativeAnnotation(t *testing.T) {
	p := buildGraphExample(t)
	f, _ := p.EntryFunc()
	loop := f.Body[0].(*Loop)
	loop.Body[0].(*Load).Native = true
	out := Print(p)
	if !strings.Contains(out, "native.load") {
		t.Fatalf("native annotation not printed:\n%s", out)
	}
}

func TestExprString(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{C(7), "7"},
		{CF(1.5), "1.5"},
		{R(3), "%3"},
		{P("n"), "$n"},
		{Add(C(1), C(2)), "(1 + 2)"},
		{Min(C(1), C(2)), "min(1, 2)"},
		{Not(C(0)), "!(0)"},
	}
	for _, tc := range cases {
		if got := ExprString(tc.e); got != tc.want {
			t.Errorf("ExprString = %q, want %q", got, tc.want)
		}
	}
}

func TestBuilderIfAndVar(t *testing.T) {
	b := NewBuilder("p")
	b.IntArray("a", 10)
	fb := b.Func("main", "n")
	acc := fb.Var(C(0))
	fb.If(Lt(P("n"), C(5)), func() {
		fb.Set(acc, Add(R(acc.ID), C(1)))
	}, func() {
		fb.Set(acc, Sub(R(acc.ID), C(1)))
	})
	fb.Return(R(acc.ID))
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	f, _ := p.EntryFunc()
	ifStmt, ok := f.Body[1].(*If)
	if !ok {
		t.Fatalf("body[1] = %T, want *If", f.Body[1])
	}
	if len(ifStmt.Then) != 1 || len(ifStmt.Else) != 1 {
		t.Fatalf("branch sizes %d/%d, want 1/1", len(ifStmt.Then), len(ifStmt.Else))
	}
}

func TestMustProgramPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustProgram did not panic on invalid program")
		}
	}()
	b := NewBuilder("p")
	fb := b.Func("main")
	fb.Load("ghost", C(0), "")
	b.MustProgram()
}

func TestLocalArrayFlag(t *testing.T) {
	b := NewBuilder("p")
	o := b.LocalArray("stack", 16)
	b.Func("main")
	if !o.Local {
		t.Fatal("LocalArray not marked local")
	}
	if _, err := b.Program(); err != nil {
		t.Fatal(err)
	}
}
