package planner

import (
	"reflect"
	"slices"
	"testing"

	"mira/internal/analysis"
	"mira/internal/apps/dataframe"
	"mira/internal/apps/distagg"
	"mira/internal/apps/graphtraverse"
	"mira/internal/rt"
)

// TestReadOnlyStreamsJoinOpenSection pins the §4.1 scope rule: a read-only,
// single-pass stream of a selected function joins the shared streaming
// section the size-ranked scope already opened, whatever its size rank, and
// nothing else joins — no written stream, no stream whose section nobody
// opened — so the rule never adds a section.
func TestReadOnlyStreamsJoinOpenSection(t *testing.T) {
	plan := func(t *testing.T, w Workload, budget int64) *Result {
		t.Helper()
		res, err := Plan(w, Options{LocalBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	inSwap := func(t *testing.T, res *Result, obj string) {
		t.Helper()
		if pl, ok := res.Config.Placements[obj]; ok && pl.Kind == rt.PlaceSection {
			t.Errorf("%s placed in section %d, want the swap pool", obj, pl.Section)
		}
	}

	t.Run("dataframe columns join", func(t *testing.T) {
		w := dataframe.New(dataframe.Config{Rows: 1 << 14, Queries: 1, Seed: 2014})
		res := plan(t, w, w.FullMemoryBytes()/4)
		streams := []string{"passengers", "zone", "payment"}
		joinedAt := map[string]int{"passengers": 1, "zone": 1, "payment": 2}
		for _, it := range res.Iterations {
			for obj, at := range joinedAt {
				if it.Index == at && !slices.Contains(it.Objects, obj) {
					t.Errorf("iteration %d objects %v, want %s joined", it.Index, it.Objects, obj)
				}
			}
			// The rule adds no section: the size-ranked objects alone
			// group into as many sections as the iteration ran with.
			var ranked []string
			for _, o := range it.Objects {
				if !slices.Contains(streams, o) {
					ranked = append(ranked, o)
				}
			}
			report, err := analysis.Analyze(w.Program(), it.Funcs, ranked)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(groupSections(w.Program(), scopeAccess(report, ranked), TechniqueMask{}, res.Config.Net)); n != it.NumSecs {
				t.Errorf("iteration %d ran %d sections, its size-ranked scope %v yields %d", it.Index, it.NumSecs, ranked, n)
			}
		}
		for _, obj := range streams {
			if pl := res.Config.Placements[obj]; pl.Kind != rt.PlaceSection {
				t.Errorf("%s is not in a section of the accepted plan", obj)
			}
		}
		if got := res.FinalTime.String(); got != "623.028us" {
			t.Errorf("final time %s, want 623.028us", got)
		}
	})

	t.Run("a written stream stays out", func(t *testing.T) {
		w := distagg.New(distagg.Config{Mode: "filter"})
		res := plan(t, w, w.FullMemoryBytes()/10)
		if it := res.Iterations[0]; !reflect.DeepEqual(it.Objects, []string{"a"}) {
			t.Errorf("iteration 1 objects %v, want [a]: the written out must not join a's section", it.Objects)
		}
		inSwap(t, res, "out")
		if got := res.FinalTime.String(); got != "776.120us" {
			t.Errorf("final time %s, want 776.120us", got)
		}
	})

	t.Run("no open section, no join", func(t *testing.T) {
		w := graphtraverse.New(graphtraverse.Config{Edges: 1024, Nodes: 256, Passes: 1, Seed: 3})
		res := plan(t, w, w.FullMemoryBytes()/16)
		// Iteration 1's ranked scope is the indirect nodes alone: it opens
		// no streaming section, so the read-only edges scan has none to
		// join.
		if it := res.Iterations[0]; !reflect.DeepEqual(it.Objects, []string{"nodes"}) {
			t.Errorf("iteration 1 objects %v, want [nodes]", it.Objects)
		}
		inSwap(t, res, "edges")
		if got := res.FinalTime.String(); got != "7.250ms" {
			t.Errorf("final time %s, want 7.250ms", got)
		}
	})

	t.Run("re-scanned columns plan as before", func(t *testing.T) {
		// With three queries every column is scanned three times: none is
		// a single-pass stream, so the scope is the size ranking's alone.
		w := dataframe.New(dataframe.Config{Rows: 1 << 14, Queries: 3, Seed: 2014})
		res := plan(t, w, w.FullMemoryBytes()/4)
		want := []struct {
			objs []string
			secs int
			time string
		}{
			{[]string{"distance"}, 1, "3.980ms"},
			{[]string{"distance", "fare"}, 2, "3.017ms"},
			{[]string{"distance", "fare", "passengers"}, 3, "2.629ms"},
		}
		if len(res.Iterations) != len(want) {
			t.Fatalf("%d iterations, want %d", len(res.Iterations), len(want))
		}
		for i, it := range res.Iterations {
			if !reflect.DeepEqual(it.Objects, want[i].objs) || it.NumSecs != want[i].secs || it.Time.String() != want[i].time || !it.Accepted {
				t.Errorf("iteration %d: objects %v, %d sections, %s, accepted %v; want %v, %d, %s, accepted",
					it.Index, it.Objects, it.NumSecs, it.Time, it.Accepted, want[i].objs, want[i].secs, want[i].time)
			}
		}
		if got := res.FinalTime.String(); got != "2.629ms" {
			t.Errorf("final time %s, want 2.629ms", got)
		}
	})
}
