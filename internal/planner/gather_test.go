package planner

import (
	"testing"

	"mira/internal/analysis"
	"mira/internal/codegen"
	"mira/internal/exec"
	"mira/internal/ir"
	"mira/internal/rt"
	"mira/internal/session"
	"mira/internal/sim"
)

// gatherCells are the pointer-chasing plans the gather window is checked on
// (benchMCF and benchGraph: the benchmark's sizes at seed 1). fallbacks marks
// the benchmark's pointer_chase Mira cells.
var gatherCells = []struct {
	name      string
	w         func() Workload
	frac      float64
	fallbacks bool
}{
	{"mcf@25", benchMCF, 0.25, true},
	{"mcf@10", benchMCF, 0.10, true},
	{"graph@25", benchGraph, 0.25, true},
	{"graph@50", benchGraph, 0.50, false},
}

// TestGatherWindowRule plans mcf at a quarter and a tenth of its footprint
// and graph at a quarter and a half. Every chained target's gather window is
// the rule read from the accepted configuration's final sections — G =
// max(4, lines/(16·k)) with k = 2 chained prefetches per source element,
// capped so that the D+1 windows of source loads in flight
// (D = codegen.GatherAhead), (D+1)·G, stay within the source's lead and
// their source lines fit in the source's section beside the current one —
// it is positive, and the program gathers instead of chaining per element.
// With batching off, every window is 0 and the per-element chain is back.
// On the three pointer_chase cells, no gathered source load takes a native
// fallback: each finds its line resident, as the window's cap promises.
func TestGatherWindowRule(t *testing.T) {
	for _, c := range gatherCells {
		t.Run(c.name, func(t *testing.T) {
			w := c.w()
			budget := int64(c.frac * float64(w.FullMemoryBytes()))
			res, err := Plan(w, Options{LocalBudget: budget})
			if err != nil {
				t.Fatal(err)
			}
			lines := func(obj string) int64 {
				sec := res.Config.Sections[res.Config.Placements[obj].Section].Cache
				return sec.SizeBytes / int64(sec.LineBytes)
			}
			chained := 0
			for name, op := range res.Plan.Objects {
				if op.ChainedFrom == "" {
					continue
				}
				chained++
				src := res.Plan.Objects[op.ChainedFrom]
				const inFlight = codegen.GatherAhead + 1
				want := min(max(4, lines(name)/(16*2)), src.PrefetchDistance/inFlight, (lines(op.ChainedFrom)-1)*src.LineElems/inFlight)
				t.Logf("%s: window %d, section %d lines, source lead %d in %d lines of %d", name, op.GatherWindow, lines(name), src.PrefetchDistance, lines(op.ChainedFrom), src.LineElems)
				switch g := op.GatherWindow; {
				case g != want:
					t.Errorf("%s: window %d, the rule gives %d", name, g, want)
				case g <= 0:
					t.Errorf("%s: no window", name)
				case inFlight*g > src.PrefetchDistance:
					t.Errorf("%s: %d windows of %d reach past the source's lead %d", name, inFlight, g, src.PrefetchDistance)
				case inFlight*g > (lines(op.ChainedFrom)-1)*src.LineElems:
					t.Errorf("%s: %d windows of %d overfill the source's %d lines of %d", name, inFlight, g, lines(op.ChainedFrom), src.LineElems)
				}
			}
			if chained == 0 {
				t.Fatal("no chained target in the accepted plan")
			}
			if g, p := chainShapes(res.Program); g == 0 || p > 0 {
				t.Errorf("program has %d gathers and %d per-element chained prefetches", g, p)
			}

			off, err := Plan(w, Options{LocalBudget: budget, Techniques: TechniqueMask{NoBatching: true}})
			if err != nil {
				t.Fatal(err)
			}
			for name, op := range off.Plan.Objects {
				if op.GatherWindow != 0 {
					t.Errorf("batching off: %s has window %d", name, op.GatherWindow)
				}
			}
			if g, p := chainShapes(off.Program); g > 0 || p == 0 {
				t.Errorf("batching off: program has %d gathers and %d per-element chained prefetches", g, p)
			}

			if !c.fallbacks {
				return
			}
			s, err := session.Open(session.Spec{Workload: w, Program: res.Program, Config: res.Config, Swap: session.NoPrefetch})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			tap := &gatherTap{r: s.RT}
			cost := s.RT.Config().Cost
			ex, err := exec.New(res.Program, tap, exec.Options{ComputeOp: cost.ComputeOp, FloatOp: cost.FloatOp, Params: w.Params()})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ex.Run(s.Clock()); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Finish(true); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d gathered source loads, %d native fallbacks in all", tap.loads, tap.all)
			if tap.loads == 0 || tap.fallbacks != 0 {
				t.Errorf("%d of %d gathered source loads fell back", tap.fallbacks, tap.loads)
			}
		})
	}
}

// gatherTap drives a runtime by name and attributes its native fallbacks: a
// gather makes its source loads back to back and then its one PrefetchBatch,
// so the last len(entries) accesses before a batch are that gather's loads.
type gatherTap struct {
	r                     *rt.Runtime
	fell                  []bool // the accesses since the last batch: did each fall back?
	loads, fallbacks, all int64
}

func (g *gatherTap) nativeFallbacks() int64 {
	var n int64
	for i := 0; i < g.r.NumSections(); i++ {
		n += g.r.NativeFallbacks(i)
	}
	return n
}

func (g *gatherTap) Access(clk *sim.Clock, name string, elem int64, f ir.Field, buf []byte, write bool, opts rt.AccessOpts) error {
	before := g.nativeFallbacks()
	err := g.r.Access(clk, name, elem, f, buf, write, opts)
	fell := g.nativeFallbacks() > before
	if fell {
		g.all++
	}
	g.fell = append(g.fell, fell)
	return err
}

func (g *gatherTap) PrefetchBatch(clk *sim.Clock, entries []rt.BatchEntry) error {
	if n := len(entries); n <= len(g.fell) {
		for _, fell := range g.fell[len(g.fell)-n:] {
			g.loads++
			if fell {
				g.fallbacks++
			}
		}
	}
	g.fell = g.fell[:0]
	return g.r.PrefetchBatch(clk, entries)
}

func (g *gatherTap) Prefetch(clk *sim.Clock, name string, elem int64, f ir.Field) error {
	return g.r.Prefetch(clk, name, elem, f)
}
func (g *gatherTap) EvictHint(clk *sim.Clock, name string, elem int64) error {
	return g.r.EvictHint(clk, name, elem)
}
func (g *gatherTap) Fence(clk *sim.Clock) { g.r.Fence(clk) }
func (g *gatherTap) BulkRead(clk *sim.Clock, name string, elem int64, buf []byte) error {
	return g.r.BulkRead(clk, name, elem, buf)
}
func (g *gatherTap) BulkWrite(clk *sim.Clock, name string, elem int64, buf []byte) error {
	return g.r.BulkWrite(clk, name, elem, buf)
}
func (g *gatherTap) FlushObject(clk *sim.Clock, name string) error {
	return g.r.FlushObject(clk, name)
}
func (g *gatherTap) Release(clk *sim.Clock, name string) error { return g.r.Release(clk, name) }

// chainShapes counts a program's gathers and its per-element chained
// prefetches (a prefetch indexed by a register, not by an affine index).
func chainShapes(p *ir.Program) (gathers, perElement int) {
	for _, fn := range p.Funcs {
		ir.Walk(fn.Body, func(s ir.Stmt) bool {
			switch st := s.(type) {
			case *ir.GatherPrefetch:
				gathers++
			case *ir.Prefetch:
				if _, ok := st.Index.(*ir.Reg); ok {
					perElement++
				}
			}
			return true
		})
	}
	return gathers, perElement
}

// TestWholeIndirectLine: an indirect section sized to hold its object's
// whole footprint takes the sequential line size and shrinks to the
// footprint's lines plus one; one even a byte short of it keeps its line and
// its size. A random section is left alone either way.
func TestWholeIndirectLine(t *testing.T) {
	b := ir.NewBuilder("p")
	b.Object("nodes", 128, 4096, ir.F("v", 0, 8))
	b.Func("main")
	prog := b.MustProgram()
	const foot = 128 * 4096
	for _, c := range []struct {
		pattern  analysis.Pattern
		size     int64
		wantLine int
		wantSize int64
	}{
		{analysis.PatternIndirect, 1 << 20, 2048, foot + 2048},
		{analysis.PatternIndirect, foot, 2048, foot},
		{analysis.PatternIndirect, foot - 1, 128, foot - 1},
		{analysis.PatternRandom, 1 << 20, 128, 1 << 20},
	} {
		d := &sectionDraft{name: "s", members: []string{"nodes"}, lineBytes: 128, sizeBytes: c.size}
		merged := map[string]*analysis.ObjectAccess{"nodes": mkMerged(c.pattern, 128, []string{"v"}, 8)}
		wholeIndirect(prog, merged, []*sectionDraft{d})
		if d.lineBytes != c.wantLine || d.sizeBytes != c.wantSize {
			t.Errorf("%v section of %d bytes: line %d, size %d; want line %d, size %d",
				c.pattern, c.size, d.lineBytes, d.sizeBytes, c.wantLine, c.wantSize)
		}
	}
}
