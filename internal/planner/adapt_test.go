package planner

import (
	"testing"

	"mira/internal/apps/dataframe"
)

func TestAdaptKeepsGoodCompilation(t *testing.T) {
	train := dataframe.New(dataframe.Config{Rows: 8192, Seed: 2014})
	opts := Options{LocalBudget: train.FullMemoryBytes() / 3, MaxIterations: 2}
	res, err := Plan(train, opts)
	if err != nil {
		t.Fatal(err)
	}
	// A same-distribution input (different seed) should not trigger
	// re-optimization: the compilation generalizes (§3, Fig. 16's
	// train-2014 / test-2015 result).
	test := dataframe.New(dataframe.Config{Rows: 8192, Seed: 2015})
	kept, reoptimized, err := Adapt(res, test, opts, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if reoptimized {
		t.Fatal("same-distribution input triggered re-optimization")
	}
	if kept != res {
		t.Fatal("compilation not kept")
	}
}

func TestAdaptReoptimizesOnDegradation(t *testing.T) {
	// Train on an input year where almost no rows match the filter, then
	// present a year where most do: the same compilation now moves far
	// more data (result-vector writes) and degrades past tolerance,
	// triggering a background re-optimization (§3).
	cfg := dataframe.Config{Rows: 16384, Seed: 2014, FilterOnly: true, CreditRate: 0.02}
	train := dataframe.New(cfg)
	opts := Options{LocalBudget: train.FullMemoryBytes() / 4, MaxIterations: 2}
	res, err := Plan(train, opts)
	if err != nil {
		t.Fatal(err)
	}
	heavy := cfg
	heavy.Seed = 2015
	heavy.CreditRate = 0.9
	adapted, reoptimized, err := Adapt(res, dataframe.New(heavy), opts, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !reoptimized {
		t.Fatal("heavy-match input did not trigger re-optimization")
	}
	if adapted.FinalTime <= 0 {
		t.Fatal("no adapted time")
	}
}

func TestAdaptNilPrevious(t *testing.T) {
	w := dataframe.New(dataframe.Config{Rows: 256, Seed: 1})
	if _, _, err := Adapt(nil, w, Options{LocalBudget: 1 << 20}, 0.2); err == nil {
		t.Fatal("nil previous accepted")
	}
}

func TestMeasureMatchesPlanTime(t *testing.T) {
	w := dataframe.New(dataframe.Config{Rows: 4096, Seed: 2014})
	opts := Options{LocalBudget: w.FullMemoryBytes() / 2, MaxIterations: 2}
	res, err := Plan(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Measuring the accepted compilation on the training input reproduces
	// the planner's recorded FinalTime (up to the profiling run's
	// sampling jitter, well under 0.1%).
	got, err := Measure(res, dataframe.New(dataframe.Config{Rows: 4096, Seed: 2014}))
	if err != nil {
		t.Fatal(err)
	}
	diff := float64(got-res.FinalTime) / float64(res.FinalTime)
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.001 {
		t.Fatalf("Measure = %v, FinalTime = %v (%.4f%% apart)", got, res.FinalTime, diff*100)
	}
}

func TestMeasureNilResult(t *testing.T) {
	w := dataframe.New(dataframe.Config{Rows: 256, Seed: 1})
	if _, err := Measure(nil, w); err == nil {
		t.Fatal("nil result accepted")
	}
}

func TestAdaptContainment(t *testing.T) {
	// §3's guarantee: whatever Adapt returns is never slower on the new
	// input than the stale compilation, because it keeps the better of
	// the two.
	cfg := dataframe.Config{Rows: 8192, Seed: 2014, FilterOnly: true, CreditRate: 0.02}
	train := dataframe.New(cfg)
	opts := Options{LocalBudget: train.FullMemoryBytes() / 4, MaxIterations: 2}
	res, err := Plan(train, opts)
	if err != nil {
		t.Fatal(err)
	}
	shifted := cfg
	shifted.Seed = 2015
	shifted.CreditRate = 0.9
	stale, err := Measure(res, dataframe.New(shifted))
	if err != nil {
		t.Fatal(err)
	}
	adapted, _, err := Adapt(res, dataframe.New(shifted), opts, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	after, err := Measure(adapted, dataframe.New(shifted))
	if err != nil {
		t.Fatal(err)
	}
	if after > stale {
		t.Fatalf("adapted compilation slower than stale: %v > %v", after, stale)
	}
}
