package mira

import (
	"bytes"
	"fmt"
	"testing"
)

// TestOffloadDeterminism: the scatter-gather offload path is bit-exact.
// For each kernel x offload mode x node count, two identical runs produce
// identical simulated times and byte-identical traces, and every run's
// output verifies against the native oracle (so offloaded results equal
// the sequential ones, element for element).
func TestOffloadDeterminism(t *testing.T) {
	for _, kernel := range []string{"agg", "filter"} {
		for _, mode := range []string{"off", "on"} {
			for _, nodes := range []int{1, 4} {
				name := fmt.Sprintf("%s/offload-%s/nodes-%d", kernel, mode, nodes)
				t.Run(name, func(t *testing.T) {
					run := func() (RunResult, []byte) {
						w := NewDistAggWorkload(DistAggConfig{N: 1 << 14, Mode: kernel})
						tr := NewTracer()
						res, err := Run(SystemMira, w, RunOptions{
							Budget:      w.FullMemoryBytes() / 4,
							Verify:      true,
							Nodes:       nodes,
							StripeBytes: 16 << 10,
							Planner:     PlanOptions{Offload: mode},
							Trace:       tr,
						})
						if err != nil {
							t.Fatalf("run: %v", err)
						}
						var buf bytes.Buffer
						if err := tr.WriteTrace(&buf); err != nil {
							t.Fatalf("trace: %v", err)
						}
						return res, buf.Bytes()
					}
					r1, trace1 := run()
					r2, trace2 := run()
					if r1.Time != r2.Time {
						t.Errorf("times differ across identical runs: %v vs %v", r1.Time, r2.Time)
					}
					if !bytes.Equal(trace1, trace2) {
						t.Errorf("traces differ across identical runs (%d vs %d bytes)", len(trace1), len(trace2))
					}
					if mode == "on" {
						if pr := r1.PlanResult; pr == nil || len(pr.Offloaded) == 0 {
							t.Errorf("offload on accepted no functions")
						}
					}
				})
			}
		}
	}
}
