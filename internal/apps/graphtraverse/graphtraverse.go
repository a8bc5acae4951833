// Package graphtraverse implements the paper's rundown example (Fig. 4): a
// sequential pass over an edge array updating per-node counters in a node
// array through indirect (pointer-valued) indices. It is the workload
// behind Figs. 5-12 and 15. An optional third, uniformly-random-accessed
// array reproduces the three-section sizing study of Figs. 11-12.
package graphtraverse

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"mira/internal/exec"
	"mira/internal/ir"
	"mira/internal/sim"
	"mira/internal/workload"
)

// Config sizes the workload.
type Config struct {
	// Edges is the number of edges (16 B each: from, to).
	Edges int64
	// Nodes is the number of nodes (128 B each: count + payload).
	Nodes int64
	// WithThird adds a uniformly-randomly accessed 64 B-element array of
	// Third elements (Figs. 11-12).
	Third int64
	// Passes repeats the traversal (more pressure, stable profiles).
	Passes int64
	// Seed drives the deterministic edge generator.
	Seed uint64
	// NodeWidth overrides the node element size (default NodeBytes =
	// 128). Fig. 22's selective-transmission study uses wide nodes
	// (e.g. 4 KB) of which the traversal touches only the 8 B counter.
	NodeWidth int64
	// Skew > 0 draws node endpoints from a skewed (power-law-like)
	// distribution, as real graphs have: endpoint = hash(floor(N *
	// u^Skew)). Hot nodes are scattered across the array, so a
	// page-granular cache wastes most of every fetched page on cold
	// neighbours — the paper's 2.3-31x amplification (§1). Zero means
	// uniform.
	Skew float64
}

// DefaultConfig is the size used by the figure harness: ~768 KB of far
// data, small enough to sweep local-memory fractions quickly.
func DefaultConfig() Config {
	return Config{Edges: 16384, Nodes: 2048, Passes: 1, Seed: 2023}
}

// EdgeBytes and NodeBytes mirror the paper's element sizes: edges are two
// 8 B node indices; nodes are 128 B structures whose first field is the
// counter the traversal updates (the paper's "128 bytes is the smallest
// size that can hold the accessed data unit").
const (
	EdgeBytes  = 16
	NodeBytes  = 128
	ThirdBytes = 64
)

// Workload implements planner.Workload.
type Workload struct {
	cfg   Config
	prog  *ir.Program
	edges workload.Image

	countsOnce sync.Once
	counts     []int64
}

// New builds the workload.
func New(cfg Config) *Workload {
	if cfg.Edges == 0 {
		cfg = DefaultConfig()
	}
	if cfg.Passes <= 0 {
		cfg.Passes = 1
	}
	if cfg.NodeWidth <= 0 {
		cfg.NodeWidth = NodeBytes
	}
	return &Workload{cfg: cfg, prog: build(cfg)}
}

// Name implements planner.Workload.
func (w *Workload) Name() string { return "graphtraverse" }

// Program implements planner.Workload.
func (w *Workload) Program() *ir.Program { return w.prog }

// Training is the same workload on the next seed: its training input.
func (w *Workload) Training() workload.Workload { c := w.cfg; c.Seed++; return New(c) }

// Params implements planner.Workload.
func (w *Workload) Params() map[string]exec.Value { return nil }

// Config returns the workload's sizing.
func (w *Workload) Config() Config { return w.cfg }

// FullMemoryBytes is the workload's far-data footprint — the 100% point of
// the local-memory axis in the figures.
func (w *Workload) FullMemoryBytes() int64 {
	return w.cfg.Edges*EdgeBytes + w.cfg.Nodes*w.cfg.NodeWidth + w.cfg.Third*ThirdBytes
}

// build constructs the Fig. 4 program.
func build(cfg Config) *ir.Program {
	b := ir.NewBuilder("graphtraverse")
	b.Object("edges", EdgeBytes, cfg.Edges,
		ir.F("from", 0, 8), ir.F("to", 8, 8))
	b.Object("nodes", int(cfg.NodeWidth), cfg.Nodes,
		ir.F("count", 0, 8))
	if cfg.Third > 0 {
		b.Object("rand3", ThirdBytes, cfg.Third, ir.F("val", 0, 8))
	}
	fb := b.Func("traverse")
	fb.Loop(ir.C(0), ir.C(cfg.Passes), ir.C(1), func(pass ir.Expr) {
		fb.Loop(ir.C(0), ir.C(cfg.Edges), ir.C(1), func(i ir.Expr) {
			from := fb.Load("edges", i, "from")
			to := fb.Load("edges", i, "to")
			c1 := fb.Load("nodes", from, "count")
			fb.Store("nodes", from, "count", ir.Add(c1, ir.C(1)))
			c2 := fb.Load("nodes", to, "count")
			fb.Store("nodes", to, "count", ir.Add(c2, ir.C(1)))
			if cfg.Third > 0 {
				// Uniform random access: multiplicative hash of
				// i — deliberately non-affine so the analysis
				// classifies it Random.
				idx := ir.Mod(ir.Mul(i, ir.C(2654435761)), ir.C(cfg.Third))
				v := fb.Load("rand3", idx, "val")
				fb.Store("rand3", idx, "val", ir.Add(v, ir.C(1)))
			}
		})
	})
	return b.MustProgram()
}

// Init loads deterministic edge data.
func (w *Workload) Init(t workload.ObjectIniter) error {
	return t.InitObject("edges", w.EdgeData())
}

// EdgeData is the deterministic edge array, shared by every Init and oracle
// of this workload: read-only.
func (w *Workload) EdgeData() []byte { return w.edges.Bytes(w.generate) }

func (w *Workload) generate() []byte {
	rng := sim.NewRNG(w.cfg.Seed)
	data := make([]byte, w.cfg.Edges*EdgeBytes)
	for i := int64(0); i < w.cfg.Edges; i++ {
		binary.LittleEndian.PutUint64(data[i*EdgeBytes:], uint64(w.pickNode(rng)))
		binary.LittleEndian.PutUint64(data[i*EdgeBytes+8:], uint64(w.pickNode(rng)))
	}
	return data
}

// pickNode draws an endpoint, optionally skewed and hash-scattered.
func (w *Workload) pickNode(rng *sim.RNG) int64 {
	n := w.cfg.Nodes
	if w.cfg.Skew <= 0 {
		return int64(rng.Intn(int(n)))
	}
	u := rng.Float64()
	hot := int64(float64(n) * math.Pow(u, w.cfg.Skew))
	if hot >= n {
		hot = n - 1
	}
	// Scatter hot ids across the array so page granularity cannot
	// exploit their contiguity.
	return (hot * 2654435761) % n
}

// ExpectedCounts is the node counters computed natively — the oracle the
// integration tests compare every system's output against. Computed once;
// the result is shared and must not be written.
func (w *Workload) ExpectedCounts() []int64 {
	w.countsOnce.Do(func() { w.counts = w.expectedCounts() })
	return w.counts
}

func (w *Workload) expectedCounts() []int64 {
	counts := make([]int64, w.cfg.Nodes)
	data := w.EdgeData()
	for p := int64(0); p < w.cfg.Passes; p++ {
		for i := int64(0); i < w.cfg.Edges; i++ {
			from := int64(binary.LittleEndian.Uint64(data[i*EdgeBytes:]))
			to := int64(binary.LittleEndian.Uint64(data[i*EdgeBytes+8:]))
			counts[from]++
			counts[to]++
		}
	}
	return counts
}

// Verify checks the final node counters against the oracle. Call after the
// system's flush.
func (w *Workload) Verify(d workload.ObjectDumper) error {
	dump, err := d.DumpObject("nodes")
	if err != nil {
		return err
	}
	want := w.ExpectedCounts()
	for i := int64(0); i < w.cfg.Nodes; i++ {
		got := int64(binary.LittleEndian.Uint64(dump[i*w.cfg.NodeWidth:]))
		if got != want[i] {
			return fmt.Errorf("graphtraverse: node %d count = %d, want %d", i, got, want[i])
		}
	}
	return nil
}
