package planner

import "testing"

// BenchmarkPlan plans the benchmark's multi-section cells at the benchmark's
// sizes and reports, beside the host cost of one Plan, how many sessions it
// opened and how many requests the run ledger answered from its record.
// mcf@25, mcf@10 and graph are the planned cells of the pointer_chase
// workload, whose plan_wall_s is the sum of their Plan calls:
//
//	go test -run '^$' -bench Plan ./internal/planner/
func BenchmarkPlan(b *testing.B) {
	for _, c := range []struct {
		name string
		w    Workload
		frac float64
	}{
		{"gpt2@35", benchGPT2(), 0.35},
		{"mcf@25", benchMCF(), 0.25},
		{"mcf@10", benchMCF(), 0.10},
		{"graph", benchGraph(), 0.25},
		{"dataframe", benchDataframe(), 0.25},
	} {
		b.Run(c.name, func(b *testing.B) {
			opts := Options{LocalBudget: int64(float64(c.w.FullMemoryBytes()) * c.frac)}
			b.ReportAllocs()
			var res *Result
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = Plan(c.w, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Runs), "sessions/op")
			b.ReportMetric(float64(res.Reused), "reused/op")
		})
	}
}
