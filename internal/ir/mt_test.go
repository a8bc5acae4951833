package ir

import (
	"strings"
	"testing"
)

// mtTestProgram is a tiny two-function program exercising every
// object-referencing statement kind.
func mtTestProgram() *Program {
	return &Program{
		Name:  "p",
		Entry: "main",
		Objects: []*Object{
			{Name: "a", ElemBytes: 8, Count: 16},
			{Name: "b", ElemBytes: 8, Count: 16, Float: true},
		},
		Funcs: []*Func{
			{
				Name:    "main",
				NumRegs: 2,
				Body: []Stmt{
					&Loop{Name: "i", IVReg: 0, Start: &Const{I: 0}, End: &Const{I: 16}, Step: &Const{I: 1}, Body: []Stmt{
						&Prefetch{Obj: "a", Index: &Reg{ID: 0}},
						&Load{Dst: 1, Obj: "a", Index: &Reg{ID: 0}},
						&Store{Obj: "a", Index: &Reg{ID: 0}, Val: &Reg{ID: 1}},
						&Evict{Obj: "a", Index: &Reg{ID: 0}},
					}},
					&BatchPrefetch{Entries: []PrefetchRef{{Obj: "a", Index: &Const{I: 0}}}},
					&Intrinsic{Kind: IntrCopy, Dst: TensorRef{Obj: "b", Rows: 4, Cols: 4, Off: &Const{I: 0}}, A: TensorRef{Obj: "b", Rows: 4, Cols: 4, Off: &Const{I: 0}},
						Ahead: []PrefetchRange{{Obj: "b", Off: &Const{I: 4}, Elems: 8, Step: 4}}},
					&Call{Dst: -1, Callee: "helper"},
					&Release{Obj: "a"},
					&Return{},
				},
			},
			{Name: "helper", Body: []Stmt{&Fence{}, &Return{}}},
		},
	}
}

func TestMergeReplicasRenamesEverything(t *testing.T) {
	p := mtTestProgram()
	if err := Validate(p); err != nil {
		t.Fatalf("base program invalid: %v", err)
	}
	m := MergeReplicas(p, 3)
	if err := Validate(m); err != nil {
		t.Fatalf("merged program invalid: %v", err)
	}
	if len(m.Objects) != 6 || len(m.Funcs) != 6 {
		t.Fatalf("got %d objects, %d funcs; want 6 and 6", len(m.Objects), len(m.Funcs))
	}
	if m.Entry != ReplicaName("main", 0) {
		t.Fatalf("entry %q", m.Entry)
	}
	for i := 0; i < 3; i++ {
		for _, name := range []string{ReplicaName("a", i), ReplicaName("b", i)} {
			if _, ok := m.Object(name); !ok {
				t.Fatalf("object %q missing", name)
			}
		}
		f, ok := m.Func(ReplicaName("main", i))
		if !ok {
			t.Fatalf("func main#t%d missing", i)
		}
		// Every object and callee reference inside replica i must carry
		// replica i's suffix.
		suffix := "#t" + string(rune('0'+i))
		Walk(f.Body, func(s Stmt) bool {
			check := func(name string) {
				if !strings.HasSuffix(name, suffix) {
					t.Fatalf("replica %d: reference %q not renamed", i, name)
				}
			}
			switch st := s.(type) {
			case *Load:
				check(st.Obj)
			case *Store:
				check(st.Obj)
			case *Prefetch:
				check(st.Obj)
			case *BatchPrefetch:
				for _, e := range st.Entries {
					check(e.Obj)
				}
			case *Evict:
				check(st.Obj)
			case *Release:
				check(st.Obj)
			case *Call:
				check(st.Callee)
			case *Intrinsic:
				check(st.Dst.Obj)
				for _, r := range st.Ahead {
					check(r.Obj)
				}
			}
			return true
		})
	}
}

func TestMergeReplicasLeavesSourceUntouched(t *testing.T) {
	p := mtTestProgram()
	_ = MergeReplicas(p, 2)
	if _, ok := p.Object("a"); !ok {
		t.Fatal("source program object renamed in place")
	}
	if err := Validate(p); err != nil {
		t.Fatalf("source program corrupted: %v", err)
	}
}
