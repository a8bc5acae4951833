//go:build !race

package planner

import (
	"runtime"
	"testing"

	"mira/internal/apps/seqscan"
)

// The end-to-end guard of "far memory is allocated once": a Plan opens a
// session per candidate, and each used to make and zero a far heap of the
// whole footprint, generate the records again and allocate a reply per
// gather — 9.5 footprints of garbage per Plan of this workload. Once one Plan
// has stocked the far side's free list and the workload holds its image, a
// Plan allocates no footprint-sized thing per session: well under two
// footprints in total (0.6 when this was written; what remains is the
// interpreter, the caches' own frames and the diff scratch).
func TestWarmPlanAllocatesNothingFootprintSized(t *testing.T) {
	w := seqscan.New(seqscan.Config{N: 1 << 15, Seed: 1})
	opts := Options{LocalBudget: w.FullMemoryBytes() / 4}
	plan := func() *Result {
		res, err := Plan(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	warm := plan()
	if warm.Runs < 3 {
		t.Fatalf("the plan ran %d sessions: too few for the guard to mean anything", warm.Runs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	again := plan()
	runtime.ReadMemStats(&after)
	if again.FinalTime != warm.FinalTime || again.Runs != warm.Runs {
		t.Fatalf("the warm plan differs: %v in %d runs, then %v in %d", warm.FinalTime, warm.Runs, again.FinalTime, again.Runs)
	}
	footprints := float64(after.TotalAlloc-before.TotalAlloc) / float64(w.FullMemoryBytes())
	t.Logf("warm Plan: %d sessions, %.2f footprints allocated", again.Runs, footprints)
	if footprints >= 2 {
		t.Errorf("a warm Plan allocated %.2f footprints over %d sessions, want < 2", footprints, again.Runs)
	}
}
