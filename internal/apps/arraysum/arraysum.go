// Package arraysum is the paper's "simple loop over an array for summing
// the array value" microbenchmark (§6.1), used in the runtime- and
// metadata-overhead comparisons (Figs. 19-20).
package arraysum

import (
	"encoding/binary"
	"fmt"

	"mira/internal/exec"
	"mira/internal/ir"
	"mira/internal/workload"
)

// Config sizes the workload.
type Config struct {
	// N is the element count (8 B ints).
	N int64
	// Seed drives data generation.
	Seed uint64
}

// DefaultConfig is the harness size.
func DefaultConfig() Config { return Config{N: 1 << 16, Seed: 1} }

// Workload implements workload.Workload.
type Workload struct {
	cfg  Config
	prog *ir.Program
	a    workload.Image
}

// New builds the workload.
func New(cfg Config) *Workload {
	if cfg.N == 0 {
		cfg = DefaultConfig()
	}
	b := ir.NewBuilder("arraysum")
	b.IntArray("a", cfg.N)
	b.IntArray("result", 1)
	// The summing kernel is a self-contained function with no shared
	// writable data — an offload candidate (§4.8): it is data-heavy and
	// compute-light, exactly what belongs next to the memory.
	sf := b.Func("sumAll")
	sf.MarkNoSharedWrites()
	acc := sf.Var(ir.C(0))
	sf.Loop(ir.C(0), ir.C(cfg.N), ir.C(1), func(i ir.Expr) {
		v := sf.Load("a", i, "")
		sf.Set(acc, ir.Add(ir.R(acc.ID), v))
	})
	sf.Store("result", ir.C(0), "", ir.R(acc.ID))
	sf.Return(ir.R(acc.ID))
	fb := b.Func("sum")
	v := fb.CallRet("sumAll")
	fb.Return(v)
	b.SetEntry("sum")
	return &Workload{cfg: cfg, prog: b.MustProgram()}
}

// Name implements workload.Workload.
func (w *Workload) Name() string { return "arraysum" }

// Program implements workload.Workload.
func (w *Workload) Program() *ir.Program { return w.prog }

// Training is the same workload on the next seed: its training input.
func (w *Workload) Training() workload.Workload { c := w.cfg; c.Seed++; return New(c) }

// Params implements workload.Workload.
func (w *Workload) Params() map[string]exec.Value { return nil }

// FullMemoryBytes implements workload.Workload.
func (w *Workload) FullMemoryBytes() int64 { return w.cfg.N*8 + 8 }

// Data is the array's initial contents, shared by every Init of this
// workload: read-only.
func (w *Workload) Data() []byte { return w.a.Bytes(w.generate) }

func (w *Workload) generate() []byte {
	data := make([]byte, w.cfg.N*8)
	for i := int64(0); i < w.cfg.N; i++ {
		binary.LittleEndian.PutUint64(data[i*8:], uint64(i*7%1000))
	}
	return data
}

// Init implements workload.Workload.
func (w *Workload) Init(t workload.ObjectIniter) error {
	return t.InitObject("a", w.Data())
}

// Expected computes the sum natively.
func (w *Workload) Expected() int64 {
	var sum int64
	for i := int64(0); i < w.cfg.N; i++ {
		sum += i * 7 % 1000
	}
	return sum
}

// Verify implements workload.Verifier.
func (w *Workload) Verify(d workload.ObjectDumper) error {
	dump, err := d.DumpObject("result")
	if err != nil {
		return err
	}
	got := int64(binary.LittleEndian.Uint64(dump))
	if want := w.Expected(); got != want {
		return fmt.Errorf("arraysum: result %d, want %d", got, want)
	}
	return nil
}
