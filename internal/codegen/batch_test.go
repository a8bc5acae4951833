package codegen

import (
	"strings"
	"testing"

	"mira/internal/analysis"
	"mira/internal/ir"
)

// scanProgram is a minimal sequential read-modify-write loop over one
// object, the shape the doorbell-batched prefetch targets.
func scanProgram(n int64) *ir.Program {
	b := ir.NewBuilder("scan")
	b.Object("recs", 64, n, ir.F("val", 0, 8))
	fb := b.Func("scan")
	fb.Loop(ir.C(0), ir.C(n), ir.C(1), func(i ir.Expr) {
		v := fb.Load("recs", i, "val")
		fb.Store("recs", i, "val", ir.Add(v, ir.C(1)))
	})
	b.SetEntry("scan")
	return b.MustProgram()
}

func batchedPlan(dist, lineElems, batch int64) *Plan {
	return &Plan{
		Objects: map[string]*ObjectPlan{
			"recs": {
				Object:           "recs",
				Pattern:          analysis.PatternSequential,
				PrefetchDistance: dist,
				LineElems:        lineElems,
				BatchLines:       batch,
			},
		},
	}
}

// tileGuards returns the per-tile guards of the transformed program's
// first loop, which must be a tile nest of period le whose inner loop
// carries no line guard.
func tileGuards(t *testing.T, p *ir.Program, le int64) []ir.Stmt {
	t.Helper()
	for _, f := range p.Funcs {
		for _, st := range f.Body {
			if _, ok := st.(*ir.Loop); !ok {
				continue
			}
			flat, guards, ok := ir.MatchTileNest(st)
			if !ok {
				t.Fatalf("first loop is not a tile nest:\n%s", ir.Print(p))
			}
			if step := st.(*ir.Loop).Step.(*ir.Const).I; step != le {
				t.Fatalf("tile of %d elements, want the line's %d", step, le)
			}
			ir.Walk(flat.Body, func(s ir.Stmt) bool {
				switch s.(type) {
				case *ir.BatchPrefetch, *ir.Evict:
					t.Fatalf("a line guard's %T runs per element:\n%s", s, ir.Print(p))
				}
				return true
			})
			return guards
		}
	}
	t.Fatal("no loop in transformed program")
	return nil
}

// findBatches collects every BatchPrefetch in the body with its guard
// period (the modulus of the enclosing If's condition, 0 if unguarded or
// guarded on equality with the loop start).
func findBatches(body []ir.Stmt) (primed []*ir.BatchPrefetch, guarded map[int64]*ir.BatchPrefetch) {
	guarded = map[int64]*ir.BatchPrefetch{}
	for _, st := range body {
		iff, ok := st.(*ir.If)
		if !ok || len(iff.Then) != 1 {
			continue
		}
		bp, ok := iff.Then[0].(*ir.BatchPrefetch)
		if !ok {
			continue
		}
		// Guard shapes: (iv+d) % period == 0 (steady state) or iv == start
		// (priming).
		if eq, ok := iff.Cond.(*ir.Bin); ok && eq.Op == ir.OpEq {
			if mod, ok := eq.A.(*ir.Bin); ok && mod.Op == ir.OpMod {
				if c, ok := mod.B.(*ir.Const); ok {
					guarded[c.I] = bp
					continue
				}
			}
			primed = append(primed, bp)
		}
	}
	return primed, guarded
}

func TestBatchedPrefetchPerObjectEmission(t *testing.T) {
	const dist, le, b = 128, 32, 8
	out, err := Apply(scanProgram(1<<14), batchedPlan(dist, le, b))
	if err != nil {
		t.Fatal(err)
	}
	primed, guarded := findBatches(tileGuards(t, out, le))

	// Once per tile: one BatchPrefetch guarded on period b*le with b entries
	// at iv+dist, iv+dist+le, ..., iv+dist+(b-1)*le.
	bp, ok := guarded[b*le]
	if !ok {
		t.Fatalf("no BatchPrefetch guarded on period %d; text:\n%s", b*le, ir.Print(out))
	}
	if len(bp.Entries) != b {
		t.Fatalf("batch has %d entries, want %d", len(bp.Entries), b)
	}
	for k, e := range bp.Entries {
		if e.Obj != "recs" {
			t.Fatalf("entry %d targets %q", k, e.Obj)
		}
		add, ok := e.Index.(*ir.Bin)
		if !ok || add.Op != ir.OpAdd {
			t.Fatalf("entry %d index is not iv+offset", k)
		}
		c, ok := add.B.(*ir.Const)
		if !ok || c.I != dist+int64(k)*le {
			t.Errorf("entry %d offset = %+v, want %d", k, add.B, dist+int64(k)*le)
		}
	}

	// Priming: one first-iteration BatchPrefetch covering the warmup gap of
	// dist/le + b lines at offsets 0, le, 2*le, ...
	if len(primed) != 1 {
		t.Fatalf("want 1 priming batch, got %d", len(primed))
	}
	wantLines := int64(dist/le + b)
	if got := int64(len(primed[0].Entries)); got != wantLines {
		t.Fatalf("priming batch has %d entries, want %d", got, wantLines)
	}
}

func TestBatchLinesOneKeepsPerLinePrefetch(t *testing.T) {
	out, err := Apply(scanProgram(1<<14), batchedPlan(128, 32, 1))
	if err != nil {
		t.Fatal(err)
	}
	text := ir.Print(out)
	if strings.Contains(text, "batch_prefetch") || strings.Contains(strings.ToLower(text), "batchprefetch") {
		t.Fatalf("BatchLines=1 emitted a batched prefetch:\n%s", text)
	}
	if !strings.Contains(text, "rmem.prefetch recs[") {
		t.Fatalf("per-line prefetch missing:\n%s", text)
	}
	if primed, _ := findBatches(tileGuards(t, out, 32)); len(primed) != 0 {
		t.Fatal("unbatched stream must not emit a priming doorbell")
	}
}

func TestFusedBatchCrossProduct(t *testing.T) {
	// Two same-line-geometry objects in a fused loop: the batch entry list
	// is the cross product (line offset x object), issued once per tile.
	n := int64(1 << 12)
	b := ir.NewBuilder("fused")
	b.Object("a", 64, n, ir.F("v", 0, 8))
	b.Object("b", 64, n, ir.F("v", 0, 8))
	fb := b.Func("f")
	fb.Loop(ir.C(0), ir.C(n), ir.C(1), func(i ir.Expr) {
		x := fb.Load("a", i, "v")
		y := fb.Load("b", i, "v")
		fb.Store("a", i, "v", ir.Add(x, y))
	})
	b.SetEntry("f")
	prog := b.MustProgram()

	const dist, le, depth = 64, 32, 4
	mk := func(name string) *ObjectPlan {
		return &ObjectPlan{
			Object:           name,
			Pattern:          analysis.PatternSequential,
			PrefetchDistance: dist,
			LineElems:        le,
			BatchLines:       depth,
		}
	}
	out, err := Apply(prog, &Plan{
		Objects:            map[string]*ObjectPlan{"a": mk("a"), "b": mk("b")},
		BatchFusedPrefetch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	primed, guarded := findBatches(tileGuards(t, out, le))
	bp, ok := guarded[depth*le]
	if !ok {
		t.Fatalf("no fused BatchPrefetch guarded on period %d:\n%s", depth*le, ir.Print(out))
	}
	if len(bp.Entries) != 2*depth {
		t.Fatalf("fused batch has %d entries, want %d (2 objects x %d lines)", len(bp.Entries), 2*depth, depth)
	}
	objs := map[string]int{}
	for _, e := range bp.Entries {
		objs[e.Obj]++
	}
	if objs["a"] != depth || objs["b"] != depth {
		t.Fatalf("cross product uneven: %v", objs)
	}
	if len(primed) != 1 {
		t.Fatalf("fused stream missing its priming doorbell (got %d)", len(primed))
	}
}
