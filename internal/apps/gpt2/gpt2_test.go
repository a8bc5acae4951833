package gpt2

import (
	"encoding/binary"
	"math"
	"testing"

	"mira/internal/analysis"
	"mira/internal/ir"
)

func small() Config { return Config{Layers: 2, DModel: 16, DFF: 32, SeqLen: 8, Seed: 3} }

func TestProgramStructure(t *testing.T) {
	w := New(small())
	p := w.Program()
	if p.Entry != "inference" {
		t.Fatalf("entry %q", p.Entry)
	}
	for l := 0; l < 2; l++ {
		for _, kind := range []string{"wq", "wk", "wv", "wo", "w1", "w2", "kcache", "vcache"} {
			if _, ok := p.Object(wname(kind, l)); !ok {
				t.Fatalf("object %s missing", wname(kind, l))
			}
		}
	}
	if err := ir.Validate(p); err != nil {
		t.Fatal(err)
	}
}

func TestWeightsDeterministic(t *testing.T) {
	a, b := New(small()), New(small())
	a.generate()
	b.generate()
	wa, wb := a.weights, b.weights
	for k, va := range wa {
		vb := wb[k]
		for i := range va {
			if va[i] != vb[i] {
				t.Fatalf("weights %s diverge at %d", k, i)
			}
		}
	}
}

func TestReferenceFinite(t *testing.T) {
	w := New(small())
	x := w.Reference()
	if len(x) != 8*16 {
		t.Fatalf("reference length %d", len(x))
	}
	var sum float64
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("x[%d] = %v", i, v)
		}
		sum += v * v
	}
	if sum == 0 {
		t.Fatal("reference output all zeros")
	}
	// LayerNorm output: each row has ~zero mean and ~unit variance.
	for r := 0; r < 8; r++ {
		var mean float64
		for c := 0; c < 16; c++ {
			mean += x[r*16+c]
		}
		mean /= 16
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("row %d mean %g after layernorm", r, mean)
		}
	}
}

func TestPerLayerLifetimesVisibleToAnalysis(t *testing.T) {
	w := New(small())
	r, err := analysis.Analyze(w.Program(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Layer 0's weights are touched only in layer0; layer 1's only in
	// layer1 — the lifetime structure behind Fig. 17.
	if _, ok := r.Funcs["layer0"].Objects[wname("wq", 0)]; !ok {
		t.Fatal("layer0 does not access its wq")
	}
	if _, ok := r.Funcs["layer1"].Objects[wname("wq", 0)]; ok {
		t.Fatal("layer1 accesses layer0's wq")
	}
	// Tensor intrinsics report their co-resident working set.
	a := r.Funcs["layer0"].Objects[wname("w1", 0)]
	if a == nil || a.CoResidentBytes == 0 {
		t.Fatal("w1 has no co-resident working-set estimate")
	}
}

func TestFullMemoryBytesCoversObjects(t *testing.T) {
	w := New(small())
	var total int64
	for _, o := range w.Program().Objects {
		if !o.Local {
			total += o.SizeBytes()
		}
	}
	if w.FullMemoryBytes() != total {
		t.Fatalf("FullMemoryBytes %d != object total %d", w.FullMemoryBytes(), total)
	}
}

type memStore map[string][]byte

func (m memStore) InitObject(name string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	m[name] = cp
	return nil
}

func (m memStore) DumpObject(name string) ([]byte, error) { return m[name], nil }

func TestInitLoadsAllWeights(t *testing.T) {
	w := New(Config{Layers: 2, DModel: 16, DFF: 32, SeqLen: 4, Seed: 3})
	st := memStore{}
	if err := w.Init(st); err != nil {
		t.Fatal(err)
	}
	// Every far object the program declares beyond scratch must be
	// initialized or zero-initialized; at minimum the per-layer weights
	// and the embedding input must be present.
	for _, name := range []string{"x", "w1_l0", "w2_l0", "w1_l1", "w2_l1"} {
		if len(st[name]) == 0 {
			t.Fatalf("object %q not initialized", name)
		}
	}
}

func TestVerifyAgainstReference(t *testing.T) {
	w := New(Config{Layers: 2, DModel: 16, DFF: 32, SeqLen: 4, Seed: 3})
	st := memStore{}
	if err := w.Init(st); err != nil {
		t.Fatal(err)
	}
	ref := w.Reference()
	buf := make([]byte, len(ref)*8)
	for i, v := range ref {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	st["x"] = buf
	if err := w.Verify(st); err != nil {
		t.Fatalf("reference output rejected: %v", err)
	}
	binary.LittleEndian.PutUint64(st["x"][0:], math.Float64bits(ref[0]+0.5))
	if err := w.Verify(st); err == nil {
		t.Fatal("corrupted output accepted")
	}
}

func TestAccessorsAndDefaults(t *testing.T) {
	w := New(Config{})
	def := DefaultConfig()
	if w.Config().Layers != def.Layers {
		t.Fatal("zero config not defaulted")
	}
	if w.Name() != "gpt2" || w.Params() != nil {
		t.Fatalf("accessors: %q %v", w.Name(), w.Params())
	}
	if w.FullMemoryBytes() <= 0 {
		t.Fatal("no footprint")
	}
}
