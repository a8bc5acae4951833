// Package mcf reproduces the access character of SPEC CPU2006 429.mcf
// (single-depot vehicle scheduling via network simplex): a pricing loop
// that scans the arc array sequentially while reading node potentials
// through arc endpoints (indirect), followed by a potential update that
// chases parent pointers through the node array — "memory accesses highly
// dependent on pointer values and program control flows" (§6.1), the
// least analysis-friendly of the paper's applications.
package mcf

import (
	"encoding/binary"
	"fmt"
	"sync"

	"mira/internal/exec"
	"mira/internal/ir"
	"mira/internal/sim"
	"mira/internal/workload"
)

// Element layouts.
const (
	// ArcBytes: tail(8) head(8) cost(8) flow(8).
	ArcBytes = 32
	// NodeBytes: potential(8) parent(8) + basis-tree payload.
	NodeBytes = 64
)

// Config sizes the workload.
type Config struct {
	// Arcs is the arc count.
	Arcs int64
	// Nodes is the node count.
	Nodes int64
	// Iterations is the number of simplex pivots.
	Iterations int64
	// WalkLen is the parent-chain update length per pivot.
	WalkLen int64
	// Seed drives the deterministic graph generator.
	Seed uint64
}

// DefaultConfig is the harness size (the paper's "smaller graph").
func DefaultConfig() Config {
	return Config{Arcs: 8192, Nodes: 2048, Iterations: 24, WalkLen: 64, Seed: 429}
}

// Workload implements workload.Workload.
type Workload struct {
	cfg  Config
	prog *ir.Program
	// The byte images of the generated graph, as Init hands them to
	// InitObject.
	arcs, nodes workload.Image
	// The reference's final potentials and flows, computed once and shared
	// read-only by every Verify.
	refOnce           sync.Once
	wantPot, wantFlow []int64
}

// New builds the workload.
func New(cfg Config) *Workload {
	if cfg.Arcs == 0 {
		cfg = DefaultConfig()
	}
	return &Workload{cfg: cfg, prog: build(cfg)}
}

// Name implements workload.Workload.
func (w *Workload) Name() string { return "mcf" }

// Program implements workload.Workload.
func (w *Workload) Program() *ir.Program { return w.prog }

// Training is the same workload on the next seed: its training input.
func (w *Workload) Training() workload.Workload { c := w.cfg; c.Seed++; return New(c) }

// Params implements workload.Workload.
func (w *Workload) Params() map[string]exec.Value { return nil }

// Config returns the sizing.
func (w *Workload) Config() Config { return w.cfg }

// FullMemoryBytes implements workload.Workload.
func (w *Workload) FullMemoryBytes() int64 {
	return w.cfg.Arcs*ArcBytes + w.cfg.Nodes*NodeBytes
}

func build(cfg Config) *ir.Program {
	b := ir.NewBuilder("mcf")
	b.Object("arcs", ArcBytes, cfg.Arcs,
		ir.F("tail", 0, 8), ir.F("head", 8, 8), ir.F("cost", 16, 8), ir.F("flow", 24, 8))
	b.Object("nodes", NodeBytes, cfg.Nodes,
		ir.F("pot", 0, 8), ir.F("parent", 8, 8))

	// price: one pricing scan returning the most negative reduced-cost
	// arc (or -1).
	pf := b.Func("price")
	best := pf.Var(ir.C(-1))
	bestVal := pf.Var(ir.C(0))
	pf.Loop(ir.C(0), ir.C(cfg.Arcs), ir.C(1), func(a ir.Expr) {
		tail := pf.Load("arcs", a, "tail")
		head := pf.Load("arcs", a, "head")
		cost := pf.Load("arcs", a, "cost")
		pt := pf.Load("nodes", tail, "pot")
		ph := pf.Load("nodes", head, "pot")
		rc := pf.Let(ir.Add(cost, ir.Sub(pt, ph)))
		pf.If(ir.Lt(rc, ir.R(bestVal.ID)), func() {
			pf.Set(bestVal, rc)
			pf.Set(best, a)
		}, nil)
	})
	pf.Return(ir.R(best.ID))

	// update: walk the parent chain from the entering arc's tail,
	// adjusting potentials (pointer chasing), then augment flow.
	uf := b.Func("update", "arc", "delta")
	v := uf.Var(uf.Load("arcs", ir.P("arc"), "tail"))
	uf.Loop(ir.C(0), ir.C(cfg.WalkLen), ir.C(1), func(step ir.Expr) {
		pot := uf.Load("nodes", ir.R(v.ID), "pot")
		uf.Store("nodes", ir.R(v.ID), "pot", ir.Add(pot, ir.P("delta")))
		next := uf.Load("nodes", ir.R(v.ID), "parent")
		uf.Set(v, next)
	})
	flow := uf.Load("arcs", ir.P("arc"), "flow")
	uf.Store("arcs", ir.P("arc"), "flow", ir.Add(flow, ir.C(1)))

	// simplex: the pivot loop.
	sf := b.Func("simplex")
	sf.Loop(ir.C(0), ir.C(cfg.Iterations), ir.C(1), func(it ir.Expr) {
		arc := sf.CallRet("price")
		sf.If(ir.Ge(arc, ir.C(0)), func() {
			sf.Call("update", arc, ir.C(1))
		}, nil)
	})
	b.SetEntry("simplex")
	return b.MustProgram()
}

// graph holds the generated input in native form.
type graph struct {
	tail, head, cost []int64
	pot, parent      []int64
}

func (w *Workload) generate() *graph {
	rng := sim.NewRNG(w.cfg.Seed)
	g := &graph{
		tail:   make([]int64, w.cfg.Arcs),
		head:   make([]int64, w.cfg.Arcs),
		cost:   make([]int64, w.cfg.Arcs),
		pot:    make([]int64, w.cfg.Nodes),
		parent: make([]int64, w.cfg.Nodes),
	}
	for i := int64(0); i < w.cfg.Arcs; i++ {
		g.tail[i] = int64(rng.Intn(int(w.cfg.Nodes)))
		g.head[i] = int64(rng.Intn(int(w.cfg.Nodes)))
		g.cost[i] = int64(rng.Intn(1000)) - 500
	}
	for n := int64(0); n < w.cfg.Nodes; n++ {
		g.pot[n] = int64(rng.Intn(100))
		// Parent chains converge toward node 0 (a basis tree rooted at
		// the depot).
		if n == 0 {
			g.parent[n] = 0
		} else {
			g.parent[n] = int64(rng.Intn(int(n)))
		}
	}
	return g
}

// Init implements workload.Workload: both objects are loaded from images
// generated once and shared read-only by every session of this workload.
func (w *Workload) Init(t workload.ObjectIniter) error {
	if err := t.InitObject("arcs", w.arcs.Bytes(w.arcImage)); err != nil {
		return err
	}
	return t.InitObject("nodes", w.nodes.Bytes(w.nodeImage))
}

func (w *Workload) arcImage() []byte {
	g := w.generate()
	arcs := make([]byte, w.cfg.Arcs*ArcBytes)
	for i := int64(0); i < w.cfg.Arcs; i++ {
		binary.LittleEndian.PutUint64(arcs[i*ArcBytes:], uint64(g.tail[i]))
		binary.LittleEndian.PutUint64(arcs[i*ArcBytes+8:], uint64(g.head[i]))
		binary.LittleEndian.PutUint64(arcs[i*ArcBytes+16:], uint64(g.cost[i]))
	}
	return arcs
}

func (w *Workload) nodeImage() []byte {
	g := w.generate()
	nodes := make([]byte, w.cfg.Nodes*NodeBytes)
	for n := int64(0); n < w.cfg.Nodes; n++ {
		binary.LittleEndian.PutUint64(nodes[n*NodeBytes:], uint64(g.pot[n]))
		binary.LittleEndian.PutUint64(nodes[n*NodeBytes+8:], uint64(g.parent[n]))
	}
	return nodes
}

// reference runs the identical algorithm natively.
func (w *Workload) reference() ([]int64, []int64) {
	g := w.generate()
	flow := make([]int64, w.cfg.Arcs)
	for it := int64(0); it < w.cfg.Iterations; it++ {
		best, bestVal := int64(-1), int64(0)
		for a := int64(0); a < w.cfg.Arcs; a++ {
			rc := g.cost[a] + g.pot[g.tail[a]] - g.pot[g.head[a]]
			if rc < bestVal {
				bestVal = rc
				best = a
			}
		}
		if best < 0 {
			continue
		}
		v := g.tail[best]
		for step := int64(0); step < w.cfg.WalkLen; step++ {
			g.pot[v] += 1 // delta is 1 in the IR call
			v = g.parent[v]
		}
		flow[best]++
	}
	return g.pot, flow
}

// Verify implements workload.Verifier.
func (w *Workload) Verify(d workload.ObjectDumper) error {
	w.refOnce.Do(func() { w.wantPot, w.wantFlow = w.reference() })
	wantPot, wantFlow := w.wantPot, w.wantFlow
	nodes, err := d.DumpObject("nodes")
	if err != nil {
		return err
	}
	for n := int64(0); n < w.cfg.Nodes; n++ {
		got := int64(binary.LittleEndian.Uint64(nodes[n*NodeBytes:]))
		if got != wantPot[n] {
			return fmt.Errorf("mcf: node %d potential %d, want %d", n, got, wantPot[n])
		}
	}
	arcs, err := d.DumpObject("arcs")
	if err != nil {
		return err
	}
	for a := int64(0); a < w.cfg.Arcs; a++ {
		got := int64(binary.LittleEndian.Uint64(arcs[a*ArcBytes+24:]))
		if got != wantFlow[a] {
			return fmt.Errorf("mcf: arc %d flow %d, want %d", a, got, wantFlow[a])
		}
	}
	return nil
}
