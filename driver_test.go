package mira

import (
	"fmt"
	"testing"

	"mira/internal/planner"
	"mira/internal/session"
)

// nineApps are mira-run's workloads: default sizes, except the two whose
// planning dominates the suite (MCF at the figures' quick scale, DataFrame
// at 2^13 rows).
func nineApps() map[string]func() Workload {
	return map[string]func() Workload{
		"graph": func() Workload { return NewGraphWorkload(GraphConfig{}) },
		"mcf": func() Workload {
			return NewMCFWorkload(MCFConfig{Arcs: 2048, Nodes: 512, Iterations: 8, WalkLen: 32, Seed: 429})
		},
		"dataframe":  func() Workload { return NewDataFrameWorkload(DataFrameConfig{Rows: 1 << 13}) },
		"gpt2":       func() Workload { return NewGPT2Workload(GPT2Config{}) },
		"arraysum":   func() Workload { return NewArraySumWorkload(ArraySumConfig{}) },
		"seqscan":    func() Workload { return NewSeqScanWorkload(SeqScanConfig{}) },
		"stridescan": func() Workload { return NewStrideScanWorkload(StrideScanConfig{}) },
		"distagg":    func() Workload { return NewDistAggWorkload(DistAggConfig{}) },
		"distfilter": func() Workload { return NewDistAggWorkload(DistAggConfig{Mode: "filter"}) },
	}
}

// TestGPT2BudgetSweepVerifies: `mira-run -app gpt2 -system mira -mem m`
// verifies for every m from 20 % to 30 %. GPT-2's layer-wise bulk transfers
// re-touch lines still parked in the write-back queue at these budgets; a
// bulk miss path that fetched the stale far copy instead failed the oracle
// at 22 %…26 %.
func TestGPT2BudgetSweepVerifies(t *testing.T) {
	for pct := 20; pct <= 30; pct++ {
		w := NewGPT2Workload(GPT2Config{})
		budget := int64(float64(w.FullMemoryBytes()) * float64(pct) / 100)
		if _, err := Run(SystemMira, w, RunOptions{Budget: budget, Verify: true}); err != nil {
			t.Errorf("gpt2 at %d%%: %v", pct, err)
		}
	}
}

// TestHarnessRerunIsThePlannersRun: the harness's verify/fault/trace re-run
// executes the accepted plan exactly as the planner timed it. A driver run of
// the accepted configuration under the planner's swap policy, with the
// profiling probes the planner's timing runs carry, reproduces FinalTime to
// the nanosecond on all nine apps — and moves the messages and bytes the
// harness reports next to that time.
func TestHarnessRerunIsThePlannersRun(t *testing.T) {
	for name, mk := range nineApps() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			w := mk()
			res, err := Run(SystemMira, w, RunOptions{Budget: w.FullMemoryBytes() / 4, Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			plan := res.PlanResult
			if res.Time != plan.FinalTime {
				t.Fatalf("harness reports %v, planner accepted %v", res.Time, plan.FinalTime)
			}
			cfg := plan.Config
			cfg.Profiling = true
			s, err := session.Open(session.Spec{
				Workload: mk(), Program: plan.Program, Config: cfg,
				Swap: session.Fixed(planner.SwapPolicy()),
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			st, err := s.Finish(true)
			if err != nil {
				t.Fatal(err)
			}
			if st.Time != plan.FinalTime {
				t.Errorf("driver run of the accepted plan takes %v, planner timed %v", st.Time, plan.FinalTime)
			}
			got := fmt.Sprint(res.Messages, res.BytesMoved, res.DemandMisses)
			if want := fmt.Sprint(st.Messages, st.BytesMoved, st.DemandMisses); got != want {
				t.Errorf("harness counters (messages, bytes, misses) %s belong to another run than the timed one: %s", got, want)
			}
		})
	}
}
