package rt

import (
	"testing"

	"mira/internal/cache"
	"mira/internal/farmem"
	"mira/internal/ir"
	"mira/internal/plane/planetest"
	"mira/internal/prefetch"
)

// TestLinePlaneConformance runs the shared plane suite against a cache
// section exposed as a DataPlane. The object is 1000 bytes over 64-byte
// lines so the tail-unit behavior is exercised.
func TestLinePlaneConformance(t *testing.T) {
	planetest.Run(t, "rt.line", func(t *testing.T) *planetest.Harness {
		t.Helper()
		b := ir.NewBuilder("planetest")
		b.Object("grid", 8, 125, ir.F("v", 0, 8))
		b.Func("main")
		cfg := Config{
			LocalBudget: 1 << 20,
			Sections: []SectionSpec{{
				Cache: cache.Config{Name: "grid", Structure: cache.SetAssoc, Ways: 4, LineBytes: 64, SizeBytes: 2 << 10},
			}},
			Placements: map[string]Placement{"grid": {Kind: PlaceSection, Section: 0}},
		}
		node := farmem.NewNode(farmem.NodeConfig{Capacity: 1 << 26, CPUSlowdown: 1})
		r, err := New(cfg, node)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Bind(b.MustProgram()); err != nil {
			t.Fatal(err)
		}
		p, err := r.LinePlane(0)
		if err != nil {
			t.Fatal(err)
		}
		o := r.objs["grid"]
		return &planetest.Harness{P: p, Base: o.farBase, Length: o.decl.SizeBytes(), FarRead: node.Read}
	})
}

// TestPagePlaneConformanceViaRuntime runs the same suite against the paged
// plane as the runtime exposes it (the swap cache over the swap heap). The
// object is 4936 bytes so its last page is partial.
func TestPagePlaneConformanceViaRuntime(t *testing.T) {
	planetest.Run(t, "rt.page", func(t *testing.T) *planetest.Harness {
		t.Helper()
		b := ir.NewBuilder("planetest")
		b.Object("vec", 8, 617, ir.F("v", 0, 8))
		b.Func("main")
		cfg := Config{
			LocalBudget: 1 << 20,
			SwapPool:    16 << 10,
			Placements:  map[string]Placement{"vec": {Kind: PlaceSwap}},
		}
		node := farmem.NewNode(farmem.NodeConfig{Capacity: 1 << 26, CPUSlowdown: 1})
		r, err := New(cfg, node)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Bind(b.MustProgram()); err != nil {
			t.Fatal(err)
		}
		p := r.PagePlane()
		if p == nil {
			t.Fatal("PagePlane returned nil with a swap pool configured")
		}
		o := r.objs["vec"]
		return &planetest.Harness{P: p, Base: o.farBase, Length: o.decl.SizeBytes(), FarRead: node.Read}
	})
}

// TestSetSectionScaleRecapsPrefetchWindow is the regression test for the
// stale prefetch-window clamp: after an elastic shrink the programmed
// policy's in-flight window must re-clamp to half the live capacity, and a
// regrow must restore the configured window.
func TestSetSectionScaleRecapsPrefetchWindow(t *testing.T) {
	r, clk := mkRuntime(t, nil) // items section: 16 KiB / 128 B = 128 lines
	pol := prefetch.NewProgrammed([]int64{0, 1, 2, 3}, 60)
	if err := r.InstallSectionPolicy(0, pol); err != nil {
		t.Fatal(err)
	}
	if pol.Window() != 60 {
		t.Fatalf("window = %d before resize, want 60", pol.Window())
	}
	// Shrink to 32 lines: a 60-line window would thrash the cache; the
	// resize must re-clamp it to half the live capacity.
	if err := r.SetSectionScale(clk, 0.25); err != nil {
		t.Fatal(err)
	}
	if pol.Window() != 16 {
		t.Fatalf("window = %d after shrink to 32 lines, want 16", pol.Window())
	}
	// Regrow: the configured window fits again and must come back whole.
	if err := r.SetSectionScale(clk, 1.0); err != nil {
		t.Fatal(err)
	}
	if pol.Window() != 60 {
		t.Fatalf("window = %d after regrow, want 60", pol.Window())
	}
}
