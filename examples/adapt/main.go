// Input-adaptation example (§3): compile once against one input
// distribution, keep serving new inputs, and let Adapt re-optimize in the
// background only when a sampled input degrades past tolerance. The
// trained compilation generalizes across same-shaped inputs — the paper's
// Fig. 16 train-2014/test-2015 result.
package main

import (
	"fmt"
	"log"

	"mira"
)

func main() {
	train := mira.DataFrameConfig{Rows: 16384, Seed: 2014, FilterOnly: true, CreditRate: 0.02}
	w := mira.NewDataFrameWorkload(train)
	opts := mira.PlanOptions{LocalBudget: w.FullMemoryBytes() / 4, MaxIterations: 2}
	res, err := mira.Plan(w, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on 2014 data (2%% filter match): %v\n\n", res.FinalTime)

	fmt.Printf("%-22s %12s %14s %8s\n", "test input", "stale", "after-adapt", "re-opt")
	for _, rate := range []float64{0.02, 0.30, 0.90} {
		cfg := train
		cfg.Seed = 2015
		cfg.CreditRate = rate
		stale, err := mira.Measure(res, mira.NewDataFrameWorkload(cfg))
		if err != nil {
			log.Fatal(err)
		}
		adapted, reopt, err := mira.Adapt(res, mira.NewDataFrameWorkload(cfg), opts, 0.2)
		if err != nil {
			log.Fatal(err)
		}
		after, err := mira.Measure(adapted, mira.NewDataFrameWorkload(cfg))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("2015, %4.0f%% match      %12v %14v %8v\n", rate*100, stale, after, reopt)
	}
	fmt.Println("\nAdapt keeps whichever compilation measures faster, so serving")
	fmt.Println("performance never regresses when the input distribution shifts.")
}
