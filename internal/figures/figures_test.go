package figures

import (
	"fmt"
	"strings"
	"testing"

	"mira/internal/apps/dataframe"
	"mira/internal/harness"
	"mira/internal/planner"
)

// shapeChecks asserts each figure's paper shape on the already-generated
// quick-scale data (run from TestAllFiguresGenerateQuick so every figure is
// generated exactly once).
var shapeChecks = map[string]func(t *testing.T, f *Figure){
	"fig9": func(t *testing.T, f *Figure) {
		// Edge-section overhead must drop monotonically up to the 2 KB
		// network knee.
		edge := findSeries(f, "edge-section")
		if edge == nil {
			t.Fatal("no edge series")
		}
		for i := 1; i < len(edge.X) && edge.X[i] <= 2048; i++ {
			if edge.Y[i] > edge.Y[i-1] {
				t.Errorf("edge overhead rose below the knee: %g@%g -> %g@%g",
					edge.Y[i-1], edge.X[i-1], edge.Y[i], edge.X[i])
			}
		}
	},
	"fig16": func(t *testing.T, f *Figure) {
		// The input-adaptation note runs the trained plan as the planner
		// timed it (planner.Measure, swap readahead included): on the
		// training input that is the plan's FinalTime, and the note's
		// figure is that measurement on the unseen input over native.
		var note string
		for _, n := range f.Notes {
			if strings.HasPrefix(n, "input adaptation:") {
				note = n
			}
		}
		cfg := dataframeCfg(Quick)
		train := dataframe.New(cfg)
		plan, err := planner.Plan(train, planner.Options{LocalBudget: train.FullMemoryBytes() / 2, MaxIterations: 3})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := planner.Measure(plan, dataframe.New(cfg)); err != nil || got != plan.FinalTime {
			t.Errorf("trained plan on its training input: %v (err %v), want FinalTime %v", got, err, plan.FinalTime)
		}
		cfg.Seed = 2015
		testTime, err := planner.Measure(plan, dataframe.New(cfg))
		if err != nil {
			t.Fatal(err)
		}
		native, err := harness.Run(harness.Native, dataframe.New(cfg), harness.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("achieves %.3g relative", relPerf(native.Time, testTime)); !strings.Contains(note, want) {
			t.Errorf("adaptation note %q does not say %q", note, want)
		}
	},
	"fig17": func(t *testing.T, f *Figure) {
		mira := findSeries(f, "mira")
		fs := findSeries(f, "fastswap")
		if mira == nil || fs == nil {
			t.Fatal("missing series")
		}
		for i := range mira.X {
			if mira.Y[i] < fs.Y[i]*0.98 {
				t.Errorf("mira below fastswap at %.2f: %g vs %g", mira.X[i], mira.Y[i], fs.Y[i])
			}
		}
		// Flat tail: the top quarter of the sweep varies by < 5% (the
		// quick-scale model's working set is a larger footprint share,
		// so its flat region is shorter than Full's — see EXPERIMENTS).
		last := mira.Y[len(mira.Y)-1]
		q3 := mira.Y[len(mira.Y)*3/4]
		if last == 0 || q3/last < 0.95 {
			t.Errorf("no flat region: 3/4-point %g vs full %g", q3, last)
		}
	},
	"fig22": func(t *testing.T, f *Figure) {
		sel := findSeries(f, "mira+selective")
		no := findSeries(f, "mira-no-selective")
		if sel == nil || no == nil {
			t.Fatal("missing series")
		}
		for i := range sel.X {
			if sel.Y[i] < no.Y[i] {
				t.Errorf("selective lost at %.2f: %g vs %g", sel.X[i], sel.Y[i], no.Y[i])
			}
		}
	},
	"fig23": func(t *testing.T, f *Figure) {
		b := findSeries(f, "mira+batching")
		nb := findSeries(f, "mira-no-batching")
		if b == nil || nb == nil {
			t.Fatal("missing series")
		}
		for i := range b.X {
			if b.Y[i] < nb.Y[i] {
				t.Errorf("batching lost at %.2f: %g vs %g", b.X[i], b.Y[i], nb.Y[i])
			}
		}
	},
	"fig24": func(t *testing.T, f *Figure) {
		mira := findSeries(f, "mira")
		fs := findSeries(f, "fastswap")
		if mira == nil || fs == nil {
			t.Fatal("missing series")
		}
		n := len(mira.Y) - 1
		if mira.Y[n] <= fs.Y[n] {
			t.Errorf("mira scaling %g not above fastswap %g at %v threads",
				mira.Y[n], fs.Y[n], mira.X[n])
		}
	},
	"fig25": func(t *testing.T, f *Figure) {
		mira := findSeries(f, "mira")
		fs := findSeries(f, "fastswap")
		aifm := findSeries(f, "aifm")
		n := len(mira.Y) - 1
		if mira.Y[n] <= fs.Y[n] {
			t.Errorf("mira shared-write scaling %g not above fastswap %g", mira.Y[n], fs.Y[n])
		}
		if aifm != nil && aifm.Y[n] > 1.5 {
			t.Errorf("aifm unexpectedly scales: %g", aifm.Y[n])
		}
	},
	"offload": func(t *testing.T, f *Figure) {
		off := findSeries(f, "mira+offload")
		no := findSeries(f, "mira-no-offload")
		if off == nil || no == nil {
			t.Fatal("missing series")
		}
		for i := range off.X {
			if off.Y[i] < no.Y[i] {
				t.Errorf("offload lost at %.2f: %g vs %g", off.X[i], off.Y[i], no.Y[i])
			}
		}
	},
	"adapt": func(t *testing.T, f *Figure) {
		stale := findSeries(f, "mira-stale (no adaptation)")
		ad := findSeries(f, "mira-adapt")
		if stale == nil || ad == nil {
			t.Fatal("missing series")
		}
		for i := range ad.X {
			if ad.Y[i] < stale.Y[i]*0.999 {
				t.Errorf("adapted below stale at %.2f: %g vs %g", ad.X[i], ad.Y[i], stale.Y[i])
			}
		}
	},
}

func findSeries(f *Figure, name string) *Series {
	for i := range f.Series {
		if f.Series[i].Name == name {
			return &f.Series[i]
		}
	}
	return nil
}

// TestAllFiguresGenerateQuick smoke-tests every registered figure at Quick
// scale — non-empty, renderable series without error — and applies the
// per-figure paper-shape checks above on the same generated data.
func TestAllFiguresGenerateQuick(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			f, err := Generate(id, Quick)
			if err != nil {
				t.Fatal(err)
			}
			if len(f.Series) == 0 {
				t.Fatal("no series")
			}
			for _, s := range f.Series {
				if len(s.X) == 0 || len(s.X) != len(s.Y) {
					t.Fatalf("series %q malformed: %d x, %d y", s.Name, len(s.X), len(s.Y))
				}
			}
			out := f.Render()
			if !strings.Contains(out, id) {
				t.Fatalf("render missing id:\n%s", out)
			}
			if check, ok := shapeChecks[id]; ok {
				check(t, f)
			}
		})
	}
}

func TestUnknownFigure(t *testing.T) {
	if _, err := Generate("fig999", Quick); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

// seriesByName fetches a series from a figure.
func seriesByName(t *testing.T, f *Figure, name string) Series {
	t.Helper()
	for _, s := range f.Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("figure %s has no series %q", f.ID, name)
	return Series{}
}

// TestFig5Shape: Mira dominates the swap baselines at every swept fraction
// below full memory — the paper's headline.
func TestFig5Shape(t *testing.T) {
	f, err := Generate("fig5", Quick)
	if err != nil {
		t.Fatal(err)
	}
	mira := seriesByName(t, f, "mira")
	fs := seriesByName(t, f, "fastswap")
	leap := seriesByName(t, f, "leap")
	for i := range mira.X {
		if mira.X[i] >= 1.0 {
			continue
		}
		if mira.Y[i] <= fs.Y[i] {
			t.Errorf("at %.0f%%: mira %.3g not above fastswap %.3g", mira.X[i]*100, mira.Y[i], fs.Y[i])
		}
		if mira.Y[i] <= leap.Y[i] {
			t.Errorf("at %.0f%%: mira %.3g not above leap %.3g", mira.X[i]*100, mira.Y[i], leap.Y[i])
		}
	}
}

// TestFig6Monotonicity: adding techniques never makes the accepted
// configuration slower (the planner rolls back regressions).
func TestFig6Monotonicity(t *testing.T) {
	f, err := Generate("fig6", Quick)
	if err != nil {
		t.Fatal(err)
	}
	s := f.Series[0]
	if s.Y[len(s.Y)-1] <= s.Y[0]*1.2 {
		t.Errorf("full Mira (%.3g) not well above swap baseline (%.3g)", s.Y[len(s.Y)-1], s.Y[0])
	}
}

// TestFig8MissRateDrop: separation must reduce the node array's miss rate
// substantially at below-full memory (the paper reports 44-78%).
func TestFig8MissRateDrop(t *testing.T) {
	f, err := Generate("fig8", Quick)
	if err != nil {
		t.Fatal(err)
	}
	joint := seriesByName(t, f, "joint")
	sep := seriesByName(t, f, "separated")
	improved := false
	for i := range joint.X {
		if joint.X[i] >= 1.0 {
			continue
		}
		if sep.Y[i] < joint.Y[i]*0.7 {
			improved = true
		}
		if sep.Y[i] > joint.Y[i]*1.05 {
			t.Errorf("at %.0f%%: separated miss rate %.3g above joint %.3g", joint.X[i]*100, sep.Y[i], joint.Y[i])
		}
	}
	if !improved {
		t.Errorf("no memory point shows a >=30%% node miss-rate drop: joint=%v sep=%v", joint.Y, sep.Y)
	}
}

// TestFig18AIFMFailsBelowFullMemory: the MCF/AIFM failure mode.
func TestFig18AIFMFailsBelowFullMemory(t *testing.T) {
	f, err := Generate("fig18", Quick)
	if err != nil {
		t.Fatal(err)
	}
	aifm := seriesByName(t, f, "aifm")
	failedSomewhere := false
	for i := range aifm.X {
		if aifm.X[i] < 0.5 && len(aifm.Absent) > i && aifm.Absent[i] {
			failedSomewhere = true
		}
	}
	if !failedSomewhere {
		t.Errorf("AIFM did not fail at small memory: absent=%v", aifm.Absent)
	}
}

// TestFig20MiraMetadataSmaller: Mira's metadata must be far below AIFM's on
// every workload where both run.
func TestFig20MiraMetadataSmaller(t *testing.T) {
	f, err := Generate("fig20", Quick)
	if err != nil {
		t.Fatal(err)
	}
	mira := seriesByName(t, f, "mira")
	aifm := seriesByName(t, f, "aifm")
	// Only element-granular AIFM configs carry the paper's heavy
	// per-pointer metadata: workloads 0 (arraysum), 1 (graph), 3 (mcf).
	// DataFrame runs AIFM's chunked implementation, whose metadata is
	// legitimately small.
	for _, i := range []int{0, 1, 3} {
		if len(aifm.Absent) > i && aifm.Absent[i] {
			continue
		}
		if mira.Y[i] >= aifm.Y[i] {
			t.Errorf("workload %d: mira metadata %.0f not below aifm %.0f", i, mira.Y[i], aifm.Y[i])
		}
	}
}

// TestScopeStatsProfilingUnderOnePercent mirrors §6.1's 0.4-0.7% claim
// (we accept anything below 2%).
func TestScopeStatsProfilingUnderOnePercent(t *testing.T) {
	f, err := Generate("scope", Quick)
	if err != nil {
		t.Fatal(err)
	}
	s := f.Series[0]
	// The last three stats are the profiling overhead percentages.
	for i := len(s.Y) - 3; i < len(s.Y); i++ {
		if s.Y[i] > 2.0 {
			t.Errorf("profiling overhead stat %d = %.2f%% above 2%%", i, s.Y[i])
		}
		if s.Y[i] < 0 {
			t.Errorf("profiling overhead stat %d negative: %.2f%%", i, s.Y[i])
		}
	}
}

func TestSeriesAtAndRender(t *testing.T) {
	f := &Figure{
		ID: "figX", Title: "t", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Name: "b", X: []float64{2, 3}, Y: []float64{0, 30}, Absent: []bool{true, false}},
		},
		Notes: []string{"hello"},
	}
	if v, absent, ok := f.Series[0].at(2); !ok || absent || v != 20 {
		t.Fatalf("at(2) = %v %v %v", v, absent, ok)
	}
	if _, absent, ok := f.Series[1].at(2); !ok || !absent {
		t.Fatalf("absent point not reported: %v %v", absent, ok)
	}
	if _, _, ok := f.Series[0].at(99); ok {
		t.Fatal("missing x reported present")
	}
	out := f.Render()
	for _, want := range []string{"figX", "fail", "hello", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
