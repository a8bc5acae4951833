package session_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mira/internal/apps/gpt2"
	"mira/internal/apps/mcf"
	"mira/internal/apps/seqscan"
	"mira/internal/cache"
	"mira/internal/ir"
	"mira/internal/planner"
	"mira/internal/rt"
	"mira/internal/session"
	"mira/internal/sim"
	"mira/internal/swap"
	"mira/internal/workload"
)

// geometryApp is one workload of the geometry property test with the
// programs the generator draws from: the canonical IR, and the planner's
// compiled clone (prefetches, eviction hints, native accesses) with the
// placements it was compiled against.
type geometryApp struct {
	name string
	w    workload.Workload
	// planned is the accepted plan's program; plan is its configuration.
	planned *ir.Program
	plan    rt.Config
}

func geometryApps(t *testing.T) []*geometryApp {
	apps := []*geometryApp{
		{name: "mcf", w: mcf.New(mcf.Config{Arcs: 512, Nodes: 128, Iterations: 2, WalkLen: 16, Seed: 42})},
		{name: "gpt2", w: gpt2.New(gpt2.Config{Layers: 1, DModel: 64, DFF: 128, SeqLen: 16, Seed: 5})},
		{name: "seqscan", w: seqscan.New(seqscan.Config{N: 4096, Seed: 1})},
	}
	for _, a := range apps {
		res, err := planner.Plan(a.w, planner.Options{LocalBudget: a.w.FullMemoryBytes() / 4})
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if len(res.Config.Sections) == 0 {
			t.Fatalf("%s: the planner accepted no section: there is no compiled program to draw", a.name)
		}
		a.planned, a.plan = res.Program, res.Config
	}
	return apps
}

// geometryPair draws two configurations of one geometry: the same structure,
// ways, line size and line count per section and the same page count, with
// each section's bytes differing inside one line and the pool's inside one
// page. The budget admits both, so neither run stops at a budget check.
func geometryPair(rng *rand.Rand, a *geometryApp) (prog *ir.Program, x, y rt.Config) {
	prog = a.w.Program()
	base := rt.Config{Placements: map[string]rt.Placement{}, Cost: rt.DefaultCostModel(), Net: rt.DefaultNet()}
	withPool := rng.Intn(2) == 0
	if rng.Intn(3) == 0 {
		// The compiled program keeps the placements it was compiled for.
		prog, base.Placements = a.planned, a.plan.Placements
		base.Sections = append([]rt.SectionSpec(nil), a.plan.Sections...)
		withPool = a.plan.SwapPool > 0
	} else {
		n := 1 + rng.Intn(3)
		for _, o := range prog.Objects {
			if o.Local || (withPool && rng.Intn(3) == 0) {
				continue // local, or left on the swap pool
			}
			base.Placements[o.Name] = rt.Placement{Kind: rt.PlaceSection, Section: rng.Intn(n)}
		}
		base.Sections = make([]rt.SectionSpec, n)
		for i := range base.Sections {
			base.Sections[i].Compress = rng.Intn(4) == 0
		}
	}
	base.WritebackQueueLines = []int{0, -1, 4}[rng.Intn(3)]
	x, y = base, base
	x.Sections = append([]rt.SectionSpec(nil), base.Sections...)
	y.Sections = append([]rt.SectionSpec(nil), base.Sections...)

	// jitter draws two sizes of the same whole-unit count: units × unit plus
	// less than one unit each, or — one time in eight — two sizes below one
	// unit, which the runtime rounds up to one.
	jitter := func(units, unit int64) (int64, int64) {
		if rng.Intn(8) == 0 {
			return 1 + rng.Int63n(unit-1), unit + rng.Int63n(unit)
		}
		return units*unit + rng.Int63n(unit), units*unit + rng.Int63n(unit)
	}
	for i := range base.Sections {
		c := cache.Config{
			Name:      fmt.Sprintf("s%d", i),
			Structure: []cache.Structure{cache.Direct, cache.SetAssoc, cache.FullAssoc}[rng.Intn(3)],
			Ways:      1 << rng.Intn(4),
			LineBytes: 64 << rng.Intn(6),
		}
		x.Sections[i].Cache, y.Sections[i].Cache = c, c
		x.Sections[i].Cache.SizeBytes, y.Sections[i].Cache.SizeBytes = jitter(1+rng.Int63n(32), int64(c.LineBytes))
	}
	if withPool {
		x.SwapPool, y.SwapPool = jitter(1+rng.Int63n(16), swap.PageBytes)
	}
	budget := prog.LocalBytes() + max(x.CarveUpBytes(), y.CarveUpBytes())
	x.LocalBudget, y.LocalBudget = budget, budget
	return prog, x, y
}

// geometryRun is everything a run under one configuration leaves behind.
type geometryRun struct {
	run  sim.Duration
	st   session.Stats
	secs []cache.Stats
	swap swap.Stats
	dump map[string][]byte
}

func runGeometry(t *testing.T, a *geometryApp, prog *ir.Program, cfg rt.Config) geometryRun {
	t.Helper()
	s, err := session.Open(session.Spec{Workload: a.w, Program: prog, Config: cfg, Swap: session.Fixed(planner.SwapPolicy())})
	if err != nil {
		t.Fatalf("open %+v: %v", cfg, err)
	}
	defer s.Close()
	var out geometryRun
	if out.run, err = s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.RT.NumSections(); i++ {
		out.secs = append(out.secs, s.RT.SectionStats(i))
	}
	out.swap = s.RT.SwapStats()
	// Verified against the native oracle as well: a generated configuration
	// must not only repeat itself, it must compute the right answer.
	if out.st, err = s.Finish(true); err != nil {
		t.Fatal(err)
	}
	if out.dump, err = s.Dump(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEqualGeometryRunsIdentically is the equivalence the planner's run
// ledger rests on (rt.Config.Geometry): configurations that differ only in
// bytes the runtime rounds away — inside one line per section, inside one page
// of the pool — are one run. Seeded pairs over structure, ways, line size,
// section count, placement, compression and write-back queue bound, with and
// without a swap pool, on canonical and planner-compiled programs, must agree
// on the clock when the program returned, the clock after the flush, every
// section's and the pool's counters, messages, bytes moved and the final far
// memory image. And the converse: one line or one page more is another
// geometry.
func TestEqualGeometryRunsIdentically(t *testing.T) {
	const pairsPerApp = 70 // × 3 apps = 210 pairs
	for _, a := range geometryApps(t) {
		a := a
		t.Run(a.name, func(t *testing.T) {
			subLine, subPage, pooled, compiled := 0, 0, 0, 0
			for seed := int64(1); seed <= pairsPerApp; seed++ {
				rng := rand.New(rand.NewSource(seed))
				prog, x, y := geometryPair(rng, a)
				if !reflect.DeepEqual(x.Geometry(), y.Geometry()) {
					t.Fatalf("seed %d: generator drew two geometries:\n %+v\n %+v", seed, x, y)
				}
				for i := range x.Sections {
					more := x
					more.Sections = append([]rt.SectionSpec(nil), x.Sections...)
					size, line := x.Sections[i].Cache.SizeBytes, int64(x.Sections[i].Cache.LineBytes)
					more.Sections[i].Cache.SizeBytes = max(size, line) + line
					if reflect.DeepEqual(more.Geometry(), x.Geometry()) {
						t.Errorf("seed %d: a line more in section %d is the same geometry", seed, i)
					}
					if size < line {
						subLine++
					}
				}
				if x.SwapPool > 0 {
					pooled++
					more := x
					more.SwapPool = max(x.SwapPool, swap.PageBytes) + swap.PageBytes
					if reflect.DeepEqual(more.Geometry(), x.Geometry()) {
						t.Errorf("seed %d: a page more in the pool is the same geometry", seed)
					}
					if x.SwapPool < swap.PageBytes {
						subPage++
					}
				}
				if prog == a.planned {
					compiled++
				}
				rx, ry := runGeometry(t, a, prog, x), runGeometry(t, a, prog, y)
				if rx.run != ry.run || rx.st.Time != ry.st.Time {
					t.Errorf("seed %d: Run %v / Finish %v under %+v, Run %v / Finish %v under %+v",
						seed, rx.run, rx.st.Time, x, ry.run, ry.st.Time, y)
				}
				if !reflect.DeepEqual(rx.secs, ry.secs) || rx.swap != ry.swap {
					t.Errorf("seed %d: cache counters differ:\n %+v %+v\n %+v %+v", seed, rx.secs, rx.swap, ry.secs, ry.swap)
				}
				if !reflect.DeepEqual(rx.st, ry.st) {
					t.Errorf("seed %d: run stats differ (Messages %d/%d, BytesMoved %d/%d):\n %+v\n %+v",
						seed, rx.st.Messages, ry.st.Messages, rx.st.BytesMoved, ry.st.BytesMoved, rx.st, ry.st)
				}
				for name, d := range rx.dump {
					if !bytes.Equal(d, ry.dump[name]) {
						t.Errorf("seed %d: object %q ends up different", seed, name)
					}
				}
			}
			t.Logf("%d pairs: %d with a pool (%d below one page), %d sections below one line, %d on the compiled program",
				pairsPerApp, pooled, subPage, subLine, compiled)
			if pooled == 0 || pooled == pairsPerApp || subLine == 0 || compiled == 0 {
				t.Errorf("the generator missed a corner: %d of %d pairs pooled, %d sub-line sections, %d compiled programs",
					pooled, pairsPerApp, subLine, compiled)
			}
		})
	}
}
