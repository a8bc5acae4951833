// Package stridescan is a memory-bound strided read-modify-write scan: the
// loop steps by two records, touching every other 128 B record. The access
// pattern classifies as strided, so it exercises the planner's strided
// prefetch-distance and doorbell-batching decisions on a datapath where
// per-message overheads dominate compute.
package stridescan

import (
	"encoding/binary"
	"fmt"

	"mira/internal/exec"
	"mira/internal/ir"
	"mira/internal/workload"
)

// RecBytes is the record size (16 records per 2 KB line).
const RecBytes = 128

// Stride is the loop step in records.
const Stride = 2

// Config sizes the workload.
type Config struct {
	// N is the record count (the scan visits every Stride-th record).
	N int64
	// Seed drives data generation.
	Seed uint64
}

// DefaultConfig is the harness size: 8 Ki records × 128 B = 1 MiB.
func DefaultConfig() Config { return Config{N: 1 << 13, Seed: 1} }

// Workload implements workload.Workload.
type Workload struct {
	cfg  Config
	prog *ir.Program
	recs workload.Image
}

// New builds the workload.
func New(cfg Config) *Workload {
	if cfg.N == 0 {
		cfg = DefaultConfig()
	}
	b := ir.NewBuilder("stridescan")
	b.Object("recs", RecBytes, cfg.N,
		ir.F("key", 0, 8), ir.F("val", 8, 8))
	b.IntArray("result", 1)
	fb := b.Func("scan")
	acc := fb.Var(ir.C(0))
	fb.Loop(ir.C(0), ir.C(cfg.N), ir.C(Stride), func(i ir.Expr) {
		k := fb.Load("recs", i, "key")
		v := fb.Load("recs", i, "val")
		nv := fb.Let(ir.Add(v, ir.Mul(k, ir.C(5))))
		fb.Store("recs", i, "val", nv)
		fb.Set(acc, ir.Add(ir.R(acc.ID), nv))
	})
	fb.Store("result", ir.C(0), "", ir.R(acc.ID))
	fb.Return(ir.R(acc.ID))
	b.SetEntry("scan")
	return &Workload{cfg: cfg, prog: b.MustProgram()}
}

// Name implements workload.Workload.
func (w *Workload) Name() string { return "stridescan" }

// Program implements workload.Workload.
func (w *Workload) Program() *ir.Program { return w.prog }

// Training is the same workload on the next seed: its training input.
func (w *Workload) Training() workload.Workload { c := w.cfg; c.Seed++; return New(c) }

// Params implements workload.Workload.
func (w *Workload) Params() map[string]exec.Value { return nil }

// FullMemoryBytes implements workload.Workload.
func (w *Workload) FullMemoryBytes() int64 { return w.cfg.N*RecBytes + 8 }

func (w *Workload) key(i int64) int64 { return (i*11 + int64(w.cfg.Seed)) % 8192 }
func (w *Workload) val(i int64) int64 { return i * 3 % 2048 }

// Data is the record array's initial contents, shared by every Init of this
// workload: read-only.
func (w *Workload) Data() []byte { return w.recs.Bytes(w.generate) }

func (w *Workload) generate() []byte {
	data := make([]byte, w.cfg.N*RecBytes)
	for i := int64(0); i < w.cfg.N; i++ {
		binary.LittleEndian.PutUint64(data[i*RecBytes:], uint64(w.key(i)))
		binary.LittleEndian.PutUint64(data[i*RecBytes+8:], uint64(w.val(i)))
	}
	return data
}

// Init implements workload.Workload.
func (w *Workload) Init(t workload.ObjectIniter) error {
	return t.InitObject("recs", w.Data())
}

// Verify implements workload.Verifier: every visited record must carry the
// updated val, every skipped record the original.
func (w *Workload) Verify(d workload.ObjectDumper) error {
	dump, err := d.DumpObject("recs")
	if err != nil {
		return err
	}
	var sum int64
	for i := int64(0); i < w.cfg.N; i++ {
		want := w.val(i)
		if i%Stride == 0 {
			want += w.key(i) * 5
			sum += want
		}
		got := int64(binary.LittleEndian.Uint64(dump[i*RecBytes+8:]))
		if got != want {
			return fmt.Errorf("stridescan: recs[%d].val = %d, want %d", i, got, want)
		}
	}
	res, err := d.DumpObject("result")
	if err != nil {
		return err
	}
	if got := int64(binary.LittleEndian.Uint64(res)); got != sum {
		return fmt.Errorf("stridescan: result %d, want %d", got, sum)
	}
	return nil
}
