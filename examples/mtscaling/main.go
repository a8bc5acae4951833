// Multithreading example: the paper's §4.6 strategies on both sharing
// patterns. Read-only threads (GPT-2 inference batch, Fig. 24) get private
// per-thread cache sections; threads writing one shared result vector
// (DataFrame filter, Fig. 25) share a fully-associative section. Both are
// compared against FastSwap's shared page pool behind the kernel fault lock.
package main

import (
	"fmt"
	"log"

	"mira"
)

func main() {
	fmt.Println("read-only scaling (GPT-2 inference batch, Fig. 24)")
	gcfg := mira.GPT2Config{Layers: 6, DModel: 64, DFF: 256, SeqLen: 16, Seed: 5}
	w := mira.NewGPT2Workload(gcfg)
	budget := w.FullMemoryBytes()
	fmt.Printf("%-10s %12s %12s\n", "threads", "mira", "fastswap")
	base := map[mira.MTMode]float64{}
	for _, n := range []int{1, 2, 4} {
		fmt.Printf("%-10d", n)
		for _, mode := range []mira.MTMode{mira.MTMiraPrivate, mira.MTFastSwapShared} {
			res, err := mira.ReadOnlyScaling(mode, mira.NewGPT2Workload(gcfg), budget, n)
			if err != nil {
				log.Fatal(err)
			}
			if n == 1 {
				base[mode] = float64(res.Time)
			}
			fmt.Printf(" %11.2fx", base[mode]/float64(res.Time))
		}
		fmt.Println()
	}

	fmt.Println("\nwritable-shared scaling (DataFrame filter, Fig. 25)")
	dcfg := mira.DataFrameConfig{Rows: 1 << 14, Seed: 7}
	dbudget := int64(1<<14) * 8 * 5 / 3
	fmt.Printf("%-10s %12s %12s\n", "threads", "mira", "fastswap")
	base = map[mira.MTMode]float64{}
	for _, n := range []int{1, 2, 4} {
		fmt.Printf("%-10d", n)
		for _, mode := range []mira.MTMode{mira.MTMiraPrivate, mira.MTFastSwapShared} {
			res, err := mira.SharedWriteFilter(mode, dcfg, dbudget, n)
			if err != nil {
				log.Fatal(err)
			}
			if n == 1 {
				base[mode] = float64(res.Time)
			}
			fmt.Printf(" %11.2fx", base[mode]/float64(res.Time))
		}
		fmt.Println()
	}
	fmt.Println("\nMira's private replicas and shared fully-associative section")
	fmt.Println("both outscale the kernel-locked shared swap pool (§4.6).")
}
