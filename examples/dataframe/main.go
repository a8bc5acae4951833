// DataFrame example: the paper's Fig. 23 batching job — avg, min, and max
// over one column, written as three consecutive loops. Mira's compiler
// fuses the loops and batch-fetches the column; this example shows the
// effect by planning with and without the batching technique.
package main

import (
	"fmt"
	"log"

	"mira"
)

func main() {
	cfg := mira.DataFrameConfig{Rows: 1 << 15, Seed: 2014, BatchJobOnly: true}
	w := mira.NewDataFrameWorkload(cfg)
	// Budget below the scanned column's size, so each of the three
	// loops must re-stream it from far memory.
	budget := w.FullMemoryBytes() / 8

	withBatching, err := mira.Plan(w, mira.PlanOptions{
		LocalBudget:   budget,
		MaxIterations: 3,
	})
	if err != nil {
		log.Fatal(err)
	}

	noBatching, err := mira.Plan(mira.NewDataFrameWorkload(cfg), mira.PlanOptions{
		LocalBudget:   budget,
		MaxIterations: 3,
		Techniques:    mira.TechniqueMask{NoBatching: true},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("avg/min/max over one vector, three consecutive loops, 12.5% local memory")
	fmt.Printf("  generic swap:          %v\n", withBatching.BaselineTime)
	fmt.Printf("  Mira without batching: %v\n", noBatching.FinalTime)
	fmt.Printf("  Mira with batching:    %v (loops fused, column batch-fetched)\n", withBatching.FinalTime)
	fmt.Printf("  batching gain:         %.2fx\n",
		float64(noBatching.FinalTime)/float64(withBatching.FinalTime))
}
