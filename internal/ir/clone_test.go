package ir

import (
	"strings"
	"testing"
)

func cloneFixture() *Program {
	b := NewBuilder("fix")
	b.Object("s", 16, 32, F("a", 0, 8), F("b", 8, 8))
	b.FloatArray("m", 64)
	callee := b.Func("helper", "x")
	callee.Return(Add(P("x"), C(1)))
	fb := b.Func("main")
	fb.Loop(C(0), C(32), C(1), func(i Expr) {
		v := fb.Load("s", i, "a")
		fb.If(Gt(v, C(0)), func() {
			fb.Store("s", i, "b", v)
		}, func() {
			fb.Store("s", i, "b", C(0))
		})
		fb.Prefetch("s", Add(i, C(4)), "a")
		fb.Evict("s", Sub(i, C(4)))
	})
	fb.BatchPrefetch(PrefetchRef{Obj: "s", Index: C(0), Field: "a"})
	fb.Fence()
	fb.MatMul(T("m", C(32), 4, 4), T("m", C(0), 4, 4), T("m", C(16), 4, 4))
	fb.Unary(IntrCopy, T("m", C(48), 4, 4), T("m", C(32), 4, 4))
	fb.Call("helper", C(3))
	fb.Return(nil)
	b.SetEntry("main")
	p := b.MustProgram()
	main, _ := p.Func("main")
	Walk(main.Body, func(s Stmt) bool {
		if st, ok := s.(*Intrinsic); ok && st.Kind == IntrMatMul {
			st.Ahead = []PrefetchRange{{Obj: "m", Off: C(32), Elems: 16, Step: 8}}
		}
		return true
	})
	return p
}

func TestCloneIsDeepAndEqual(t *testing.T) {
	p := cloneFixture()
	c := Clone(p)
	if Print(p) != Print(c) {
		t.Fatal("clone prints differently")
	}
	if !strings.Contains(Print(p), "ahead=m[32:+16/8]") {
		t.Fatalf("the operands ahead do not print:\n%s", Print(p))
	}
	// Mutate the clone everywhere reachable; original must not change.
	before := Print(p)
	c.Objects[0].Fields[0].Offset = 4
	cf, _ := c.Func("main")
	Walk(cf.Body, func(s Stmt) bool {
		switch st := s.(type) {
		case *Load:
			st.Native = true
			st.Index = C(999)
		case *Store:
			st.NoFetch = true
		case *Loop:
			st.Start = C(5)
		case *Intrinsic:
			st.Dst.Off = C(0)
			for i := range st.Ahead {
				st.Ahead[i].Off = C(1)
				st.Ahead[i].Elems = 1
			}
		case *Call:
			st.Offload = true
		case *BatchPrefetch:
			st.Entries[0].Index = C(7)
		}
		return true
	})
	if Print(p) != before {
		t.Fatal("mutating the clone changed the original")
	}
}

func TestCloneValidates(t *testing.T) {
	c := Clone(cloneFixture())
	if err := Validate(c); err != nil {
		t.Fatal(err)
	}
}

func TestCloneForEntry(t *testing.T) {
	c := CloneForEntry(cloneFixture(), "helper")
	if c.Entry != "helper" {
		t.Fatalf("entry = %q", c.Entry)
	}
	if _, err := c.EntryFunc(); err != nil {
		t.Fatal(err)
	}
}

func TestSubstReg(t *testing.T) {
	e := Add(R(3), Mul(R(4), R(3)))
	out := SubstReg(e, 3, 9)
	if got := ExprString(out); got != "(%9 + (%4 * %9))" {
		t.Fatalf("SubstReg = %q", got)
	}
	// Original expression untouched (Bin nodes rebuilt).
	if got := ExprString(e); got != "(%3 + (%4 * %3))" {
		t.Fatalf("original mutated: %q", got)
	}
}

func TestSubstRegBlock(t *testing.T) {
	b := NewBuilder("sub")
	b.IntArray("a", 8)
	fb := b.Func("main")
	fb.Loop(C(0), C(8), C(1), func(i Expr) {
		fb.Load("a", i, "")
	})
	p := b.MustProgram()
	f, _ := p.Func("main")
	loop := f.Body[0].(*Loop)
	SubstRegBlock(loop.Body, loop.IVReg, 42)
	out := Print(p)
	if !strings.Contains(out, "a[%42]") {
		t.Fatalf("IV not substituted:\n%s", out)
	}
}

func TestCloneUnknownStmtPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CloneStmt of unknown statement did not panic")
		}
	}()
	type bogus struct{ Stmt }
	CloneStmt(bogus{})
}
