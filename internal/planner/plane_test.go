package planner

import (
	"testing"

	"mira/internal/apps/graphtraverse"
)

func TestPlaneModeValidation(t *testing.T) {
	w := graphtraverse.New(graphtraverse.Config{Edges: 512, Nodes: 128, Passes: 1, Seed: 1})
	cases := []struct {
		name string
		opts Options
	}{
		{"unknown-plane", Options{Plane: "both"}},
		{"unknown-compress", Options{Compress: "gzip"}},
		{"unknown-offload", Options{Offload: "maybe"}},
	}
	for _, c := range cases {
		if err := c.opts.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid mode", c.name)
		}
		if _, err := Plan(w, c.opts); err == nil {
			t.Errorf("%s: Plan accepted an invalid mode", c.name)
		}
	}
	if err := (Options{Plane: "page", Compress: "off", Offload: "auto"}).Validate(); err != nil {
		t.Errorf("valid modes rejected: %v", err)
	}
}

// TestPlaneModesRace pins the tentpole gate at the planner level: the hybrid
// arm never loses to either pure plane, because its baseline is the page
// arm's run and its line candidate is the line arm's.
func TestPlaneModesRace(t *testing.T) {
	w := graphtraverse.New(graphtraverse.Config{Edges: 8192, Nodes: 1024, Passes: 1, Seed: 7})
	budget := w.FullMemoryBytes() / 4
	times := map[string]*Result{}
	for _, mode := range []string{"page", "line", "hybrid"} {
		opts := graphOpts(budget)
		opts.Plane = mode
		res, err := Plan(w, opts)
		if err != nil {
			t.Fatalf("Plane=%s: %v", mode, err)
		}
		if res.Planes == nil {
			t.Fatalf("Plane=%s: no plane assignment", mode)
		}
		times[mode] = res
		t.Logf("Plane=%s: final %v, planes %v", mode, res.FinalTime, res.Planes)
	}
	if h := times["hybrid"].FinalTime; h > times["page"].FinalTime || h > times["line"].FinalTime {
		t.Fatalf("hybrid (%v) lost to a pure plane (page %v, line %v)",
			h, times["page"].FinalTime, times["line"].FinalTime)
	}
	// The page mode serves every far object from the paged plane.
	for name, p := range times["page"].Planes {
		if p == "line" {
			t.Fatalf("Plane=page placed %s on the line plane", name)
		}
	}
	// Pure-page must time exactly like the classic swap baseline: it is
	// the same all-swap configuration.
	if bt := times["page"].BaselineTime; times["page"].FinalTime != bt {
		t.Fatalf("page mode final %v != its baseline %v", times["page"].FinalTime, bt)
	}
	classic, err := Plan(w, graphOpts(budget))
	if err != nil {
		t.Fatal(err)
	}
	if classic.BaselineTime != times["page"].BaselineTime {
		t.Fatalf("page-mode baseline %v != classic swap baseline %v",
			times["page"].BaselineTime, classic.BaselineTime)
	}
	if classic.Planes != nil {
		t.Fatal("classic plan (no Plane mode) reported plane assignments")
	}
}
