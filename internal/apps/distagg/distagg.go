// Package distagg is the distributed-aggregation application built for the
// scatter-gather offload engine (§4.8 scaled out): a data-heavy,
// compute-light reduction ("agg") and a predicated map-with-count
// ("filter") over an array striped across the cluster. Offloaded, each
// node reduces the stripe ranges it already owns and ships back one
// scalar; fetched, every element crosses the wire.
package distagg

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
	// K is the filter modulus: filter mode keeps elements divisible by K.
	K int64
	// Seed drives data generation.
	Seed uint64
	// Mode selects the kernel: "agg" (default) sums the array, "filter"
	// writes kept elements through and counts them.
	Mode string
}

// DefaultConfig is the harness size.
func DefaultConfig() Config { return Config{N: 1 << 15, K: 3, Seed: 1, Mode: "agg"} }

// Workload implements workload.Workload.
type Workload struct {
	cfg  Config
	prog *ir.Program
	a    workload.Image
}

// New builds the workload.
func New(cfg Config) *Workload {
	def := DefaultConfig()
	if cfg.N == 0 {
		cfg.N = def.N
	}
	if cfg.K == 0 {
		cfg.K = def.K
	}
	if cfg.Seed == 0 {
		cfg.Seed = def.Seed
	}
	if cfg.Mode == "" {
		cfg.Mode = def.Mode
	}
	b := ir.NewBuilder("distagg")
	b.IntArray("a", cfg.N)
	b.IntArray("out", cfg.N)
	b.IntArray("result", 2)
	switch cfg.Mode {
	case "agg":
		// One loop-carried sum — the canonical scatter shape: every
		// sub-offload folds its stripe ranges and the combiner adds the
		// partials.
		fb := b.Func("aggAll")
		fb.MarkNoSharedWrites()
		acc := fb.Var(ir.C(0))
		fb.Loop(ir.C(0), ir.C(cfg.N), ir.C(1), func(i ir.Expr) {
			v := fb.Load("a", i, "")
			fb.Set(acc, ir.Add(ir.R(acc.ID), v))
		})
		fb.Store("result", ir.C(0), "", ir.R(acc.ID))
		fb.Return(ir.R(acc.ID))
	case "filter":
		// Predicated map with a count: kept elements write through at the
		// raw induction variable (sub-offload write sets stay disjoint),
		// rejected slots are zeroed so the output is fully defined.
		fb := b.Func("filterAll")
		fb.MarkNoSharedWrites()
		acc := fb.Var(ir.C(0))
		fb.Loop(ir.C(0), ir.C(cfg.N), ir.C(1), func(i ir.Expr) {
			v := fb.Load("a", i, "")
			fb.If(ir.Eq(ir.Mod(v, ir.C(cfg.K)), ir.C(0)), func() {
				fb.Store("out", i, "", v)
				fb.Set(acc, ir.Add(ir.R(acc.ID), ir.C(1)))
			}, func() {
				fb.Store("out", i, "", ir.C(0))
			})
		})
		fb.Store("result", ir.C(1), "", ir.R(acc.ID))
		fb.Return(ir.R(acc.ID))
	default:
		panic(fmt.Sprintf("distagg: unknown mode %q (agg, filter)", cfg.Mode))
	}
	entry := b.Func("run")
	v := entry.CallRet(kernelName(cfg.Mode))
	entry.Return(v)
	b.SetEntry("run")
	return &Workload{cfg: cfg, prog: b.MustProgram()}
}

func kernelName(mode string) string {
	if mode == "filter" {
		return "filterAll"
	}
	return "aggAll"
}

// Name implements workload.Workload.
func (w *Workload) Name() string {
	if w.cfg.Mode == "filter" {
		return "distfilter"
	}
	return "distagg"
}

// Program implements workload.Workload.
func (w *Workload) Program() *ir.Program { return w.prog }

// Params implements workload.Workload.
func (w *Workload) Params() map[string]exec.Value { return nil }

// FullMemoryBytes implements workload.Workload.
func (w *Workload) FullMemoryBytes() int64 { return w.cfg.N*8*2 + 16 }

// Data is the array's initial contents, shared by every Init of this
// workload: read-only.
func (w *Workload) Data() []byte { return w.a.Bytes(w.generate) }

func (w *Workload) generate() []byte {
	data := make([]byte, w.cfg.N*8)
	for i := int64(0); i < w.cfg.N; i++ {
		binary.LittleEndian.PutUint64(data[i*8:], w.elem(i))
	}
	return data
}

func (w *Workload) elem(i int64) uint64 {
	return (uint64(i)*7 + w.cfg.Seed) % 1000
}

// Init implements workload.Workload.
func (w *Workload) Init(t workload.ObjectIniter) error {
	return t.InitObject("a", w.Data())
}

// Verify implements workload.Verifier.
func (w *Workload) Verify(d workload.ObjectDumper) error {
	res, err := d.DumpObject("result")
	if err != nil {
		return err
	}
	if w.cfg.Mode == "filter" {
		out, err := d.DumpObject("out")
		if err != nil {
			return err
		}
		// Kept elements pass through, rejected slots hold zero.
		var count int64
		for i := int64(0); i < w.cfg.N; i++ {
			exp := w.elem(i)
			if int64(exp)%w.cfg.K == 0 {
				count++
			} else {
				exp = 0
			}
			if got := binary.LittleEndian.Uint64(out[i*8:]); got != exp {
				return fmt.Errorf("distagg: out[%d] = %d, want %d", i, got, exp)
			}
		}
		if got := int64(binary.LittleEndian.Uint64(res[8:])); got != count {
			return fmt.Errorf("distagg: count %d, want %d", got, count)
		}
		return nil
	}
	var sum int64
	for i := int64(0); i < w.cfg.N; i++ {
		sum += int64(w.elem(i))
	}
	if got := int64(binary.LittleEndian.Uint64(res)); got != sum {
		return fmt.Errorf("distagg: sum %d, want %d", got, sum)
	}
	return nil
}
