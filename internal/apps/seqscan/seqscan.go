// Package seqscan is a memory-bound sequential read-modify-write scan over
// an array of fat records: each iteration touches two fields of record i and
// writes one back, so the per-line compute is small next to the per-line
// transfer costs. It is the primary workload for the vectored-I/O evaluation
// (batched prefetch amortizes the per-message overheads; the dirty scan
// front exercises the asynchronous write-back pipeline).
package seqscan

import (
	"encoding/binary"
	"fmt"

	"mira/internal/exec"
	"mira/internal/ir"
	"mira/internal/workload"
)

// RecBytes is the record size: big enough that a 2 KB cache line holds only
// 32 records, keeping the scan memory-bound.
const RecBytes = 64

// Config sizes the workload.
type Config struct {
	// N is the record count.
	N int64
	// Seed drives data generation.
	Seed uint64
}

// DefaultConfig is the harness size: 16 Ki records × 64 B = 1 MiB.
func DefaultConfig() Config { return Config{N: 1 << 14, Seed: 1} }

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
	b := ir.NewBuilder("seqscan")
	b.Object("recs", RecBytes, cfg.N,
		ir.F("key", 0, 8), ir.F("val", 8, 8))
	b.IntArray("result", 1)
	fb := b.Func("scan")
	acc := fb.Var(ir.C(0))
	fb.Loop(ir.C(0), ir.C(cfg.N), ir.C(1), func(i ir.Expr) {
		k := fb.Load("recs", i, "key")
		v := fb.Load("recs", i, "val")
		nv := fb.Let(ir.Add(v, ir.Mul(k, ir.C(3))))
		fb.Store("recs", i, "val", nv)
		fb.Set(acc, ir.Add(ir.R(acc.ID), nv))
	})
	fb.Store("result", ir.C(0), "", ir.R(acc.ID))
	fb.Return(ir.R(acc.ID))
	b.SetEntry("scan")
	return &Workload{cfg: cfg, prog: b.MustProgram()}
}

// Name implements workload.Workload.
func (w *Workload) Name() string { return "seqscan" }

// Program implements workload.Workload.
func (w *Workload) Program() *ir.Program { return w.prog }

// Training is the same workload on the next seed: its training input.
func (w *Workload) Training() workload.Workload { c := w.cfg; c.Seed++; return New(c) }

// Params implements workload.Workload.
func (w *Workload) Params() map[string]exec.Value { return nil }

// FullMemoryBytes implements workload.Workload.
func (w *Workload) FullMemoryBytes() int64 { return w.cfg.N*RecBytes + 8 }

func (w *Workload) key(i int64) int64 { return (i*13 + int64(w.cfg.Seed)) % 4096 }
func (w *Workload) val(i int64) int64 { return i * 7 % 1024 }

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

// Verify implements workload.Verifier: checks the scalar result and every
// written-back val field (catches lost or reordered write-backs).
func (w *Workload) Verify(d workload.ObjectDumper) error {
	dump, err := d.DumpObject("recs")
	if err != nil {
		return err
	}
	var sum int64
	for i := int64(0); i < w.cfg.N; i++ {
		want := w.val(i) + w.key(i)*3
		got := int64(binary.LittleEndian.Uint64(dump[i*RecBytes+8:]))
		if got != want {
			return fmt.Errorf("seqscan: recs[%d].val = %d, want %d", i, got, want)
		}
		sum += want
	}
	res, err := d.DumpObject("result")
	if err != nil {
		return err
	}
	if got := int64(binary.LittleEndian.Uint64(res)); got != sum {
		return fmt.Errorf("seqscan: result %d, want %d", got, sum)
	}
	return nil
}
