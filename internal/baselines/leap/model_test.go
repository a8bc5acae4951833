package leap_test

import (
	"testing"

	"mira/internal/apps/arraysum"
	"mira/internal/baselines/leap"
	"mira/internal/harness"
	"mira/internal/prefetch"
	"mira/internal/sim"
	"mira/internal/swap"
	"mira/internal/trace"
)

// TestLeapModel pins where Leap's trend detection is charged. The baseline
// detects inside its fault handler: every major fault costs the stock fault
// path plus the detection, and the advisory fetch issues the moment the
// fault completes. The zoo's leap raced on the page plane runs on a runner
// thread: the fault costs the stock path alone, and the advisory fetch
// issues the detection's cost after the fault completes.
func TestLeapModel(t *testing.T) {
	detect := prefetch.NewLeap(0, 0).PerMissOverhead()
	stock := swap.DefaultConfig(0)
	w := arraysum.New(arraysum.Config{N: 1 << 14, Seed: 2})
	budget := w.FullMemoryBytes() / 4

	spec, err := leap.Spec(w, leap.Options{LocalBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if sc := spec.Config.SwapCfg; sc.MajorFaultOverhead != stock.MajorFaultOverhead+detect ||
		sc.MinorFaultOverhead != stock.MinorFaultOverhead {
		t.Fatalf("leap.Spec fault path: major %v, minor %v; want %v + %v, %v",
			sc.MajorFaultOverhead, sc.MinorFaultOverhead, stock.MajorFaultOverhead, detect, stock.MinorFaultOverhead)
	}

	tr := trace.New()
	if _, err := harness.Run(harness.Leap, w, harness.Options{Budget: budget, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	checkCharges(t, "leap baseline", tr, stock.MajorFaultOverhead+detect, 0)

	tr = trace.New()
	if _, err := harness.RunPagePolicy(w, harness.Options{Budget: budget, Trace: tr}, prefetch.Spec{Policy: "leap"}); err != nil {
		t.Fatal(err)
	}
	checkCharges(t, "page/leap", tr, stock.MajorFaultOverhead, detect)
}

// checkCharges reads a traced run's swap events: each major fault's demand
// read must issue fault after the fault began, and each batched advisory
// fetch issue delay after a major fault completed.
func checkCharges(t *testing.T, what string, tr *trace.Tracer, fault, delay sim.Duration) {
	t.Helper()
	reads := map[sim.Time][]sim.Time{} // a read's end -> the reads' issue times
	faultEnds := map[sim.Time]bool{}
	var faults, batches []trace.Event
	for _, e := range tr.Events() {
		switch {
		case e.Cat == "net" && e.Name == "read":
			end := e.Ts.Add(e.Dur)
			reads[end] = append(reads[end], e.Ts)
		case e.Cat == "swap" && e.Name == "fault.major":
			faults = append(faults, e)
			faultEnds[e.Ts.Add(e.Dur)] = true
		case e.Cat == "swap" && e.Name == "prefetch.batch":
			batches = append(batches, e)
		}
	}
	if len(faults) == 0 || len(batches) == 0 {
		t.Fatalf("%s: %d major faults and %d prefetch batches traced; the test needs both", what, len(faults), len(batches))
	}
	for _, f := range faults {
		found := false
		for _, at := range reads[f.Ts.Add(f.Dur)] {
			found = found || at == f.Ts.Add(fault)
		}
		if !found {
			t.Fatalf("%s: the fault at %v has no demand read issued %v into it (reads ending with it issued at %v)",
				what, f.Ts, fault, reads[f.Ts.Add(f.Dur)])
		}
	}
	for _, b := range batches {
		if !faultEnds[b.Ts.Add(-delay)] {
			t.Fatalf("%s: the prefetch batch at %v does not issue %v after a major fault completes", what, b.Ts, delay)
		}
	}
}
