// Command mirac is the Mira "compiler" driver: it runs the full
// profile-analyze-configure-compile pipeline on one of the bundled
// applications and prints what the paper's Figs. 13-14 illustrate — the
// analysis report, the derived cache-section configuration, and the
// transformed IR with rmem/native operations, prefetches, eviction hints,
// and releases.
//
// Usage:
//
//	mirac -app graph -mem 0.25
//	mirac -app graph -mem 0.25 -ir     # also dump before/after IR
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"mira"
	"mira/internal/ir"
	"mira/internal/planner"
	"mira/internal/rt"
)

func main() {
	app := flag.String("app", "graph", "workload: "+strings.Join(mira.AppNames(), ", "))
	mem := flag.Float64("mem", 0.25, "local memory fraction")
	iters := flag.Int("iters", 3, "max profiling-optimization iterations")
	dumpIR := flag.Bool("ir", false, "dump the IR before and after compilation")
	flag.Parse()

	w, err := mira.NewApp(*app)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mirac: %v\n", err)
		os.Exit(2)
	}
	budget := int64(float64(w.FullMemoryBytes()) * *mem)
	res, err := planner.Plan(w, planner.Options{LocalBudget: budget, MaxIterations: *iters})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mirac: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("== %s at %.0f%% local memory (%d bytes) ==\n\n", *app, *mem*100, budget)
	fmt.Printf("iterative optimization (swap baseline %v):\n", res.BaselineTime)
	for _, it := range res.Iterations {
		verdict := "rejected (rolled back)"
		if it.Accepted {
			verdict = "accepted"
		}
		fmt.Printf("  iteration %d: top %.0f%% funcs %v, %d objects -> %d sections, %v — %s\n",
			it.Index, it.FuncFrac*100, it.Funcs, len(it.Objects), it.NumSecs, it.Time, verdict)
		if len(it.Offloaded) > 0 {
			fmt.Printf("    offloaded to far node: %v\n", it.Offloaded)
		}
	}
	fmt.Printf("final: %v (%.2fx over swap)\n\n", res.FinalTime,
		float64(res.BaselineTime)/float64(res.FinalTime))

	if res.Report != nil {
		fmt.Println("== analysis report ==")
		fmt.Println(res.Report.String())
	}

	fmt.Println("== cache-section configuration ==")
	for i, s := range res.Config.Sections {
		comm := "one-sided"
		if s.TwoSided {
			comm = fmt.Sprintf("two-sided selective %v", s.SelectiveFields)
		}
		fmt.Printf("  section %d %q: %v line=%dB size=%dB comm=%s\n",
			i, s.Cache.Name, s.Cache.Structure, s.Cache.LineBytes, s.Cache.SizeBytes, comm)
	}
	fmt.Printf("  swap pool: %d bytes\n", res.Config.SwapPool)
	names := make([]string, 0, len(res.Config.Placements))
	for name := range res.Config.Placements {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pl := res.Config.Placements[name]
		where := pl.Kind.String()
		if pl.Kind == rt.PlaceSection {
			where = fmt.Sprintf("section %d", pl.Section)
		}
		if op := res.Plan.Objects[name]; op != nil && op.Native {
			where += ", native loads"
		}
		fmt.Printf("  object %-12s -> %s\n", name, where)
	}

	if *dumpIR {
		fmt.Println("\n== original IR ==")
		fmt.Println(ir.Print(w.Program()))
		fmt.Println("== compiled IR ==")
		fmt.Println(ir.Print(res.Program))
	}
}
