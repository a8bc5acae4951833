package harness

import (
	"encoding/binary"
	"reflect"
	"testing"

	"mira/internal/analysis"
	"mira/internal/exec"
	"mira/internal/ir"
	"mira/internal/workload"
)

// tapeWorkload sweeps a 16-element array in place, then bumps nodes[edges[i]]
// for each of its four edges. Its training input has other edges.
type tapeWorkload struct {
	edges, training []int64
}

func (w *tapeWorkload) Name() string                  { return "tape" }
func (w *tapeWorkload) Params() map[string]exec.Value { return nil }
func (w *tapeWorkload) FullMemoryBytes() int64        { return (16 + 4 + 10) * 8 }
func (w *tapeWorkload) Training() workload.Workload   { return &tapeWorkload{edges: w.training} }

func (w *tapeWorkload) Program() *ir.Program {
	b := ir.NewBuilder("tape")
	b.IntArray("a", 16)
	b.IntArray("edges", 4)
	b.IntArray("nodes", 10)
	fb := b.Func("main")
	fb.Loop(ir.C(0), ir.C(16), ir.C(1), func(i ir.Expr) {
		fb.Store("a", i, "", ir.Add(fb.Load("a", i, ""), ir.C(1)))
	})
	fb.Loop(ir.C(0), ir.C(4), ir.C(1), func(i ir.Expr) {
		to := fb.Load("edges", i, "")
		fb.Store("nodes", to, "", ir.Add(fb.Load("nodes", to, ""), ir.C(1)))
	})
	return b.MustProgram()
}

func (w *tapeWorkload) Init(t workload.ObjectIniter) error {
	buf := make([]byte, 8*len(w.edges))
	for i, e := range w.edges {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(e))
	}
	return t.InitObject("edges", buf)
}

// The tape is the training run's accesses in program order: the affine sweep
// as one phase (its store repeats the element just loaded), and every
// indirect nodes[edges[i]] the static analysis of a loop cannot see, at the
// training input's indices, not the served input's.
func TestTapeRecordsIndirectAccesses(t *testing.T) {
	w := &tapeWorkload{edges: []int64{0, 0, 0, 0}, training: []int64{3, 7, 3, 1}}
	got, err := recordTape(w)
	if err != nil {
		t.Fatal(err)
	}
	one := func(obj string, elem int64) analysis.Phase {
		return analysis.Phase{Object: obj, Start: elem, Stride: 1, Count: 1}
	}
	want := []analysis.Phase{
		{Object: "a", Start: 0, Stride: 1, Count: 16},
		one("edges", 0), one("nodes", 3),
		one("edges", 1), one("nodes", 7),
		one("edges", 2), one("nodes", 3),
		one("edges", 3), one("nodes", 1),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tape = %+v\nwant %+v", got, want)
	}
	again, err := recordTape(w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, got) {
		t.Fatalf("second recording differs: %+v", again)
	}
}
